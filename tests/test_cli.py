"""Tests for the command-line front end: exit codes, files, determinism."""

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import calab
from calab import cli
from calab.bodies import ball, ellipsoid, evaluate_on_grid, perturbed_ball
from calab.minkowski import TargetMeasure
from calab.sphere import build_grid

from oracles import ScaledHessian, unfold


def write_config(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def run_cli(args):
    return cli.main([str(a) for a in args])


# ---------------------------------------------------------------------------


def test_spectrum_command_writes_report(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "grid": {"n": 3, "L": 12},
        "body": {"type": "ball", "r": 1.0},
        "k": 6,
    })
    out = tmp_path / "out"
    code = run_cli(["spectrum", "--config", cfg, "--out", out])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pass"]
    lam = [c for c in report["checks"] if c["name"] == "lambda1"][0]
    assert abs(lam["value"] - 2.0) < 1e-3
    assert (out / "spectrum.json").exists()
    assert (out / "eigenvalues.csv").exists()
    assert (out / "timing.txt").exists()


def test_malformed_config_exits_2_no_partial_outputs(tmp_path, capsys):
    # not JSON, and not UTF-8 (a valid config followed by the byte 0xff)
    for name, data in (("bad.json", b"{not json"),
                       ("latin.json", b'{"grid": {"n": 2, "L": 8}}\xff')):
        bad = tmp_path / name
        bad.write_bytes(data)
        out = tmp_path / "out"
        code = run_cli(["spectrum", "--config", bad, "--out", out])
        assert code == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()


def test_missing_body_field_exits_2(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "grid": {"n": 2, "L": 8},
        "body": {"type": "nonsense"},
    })
    out = tmp_path / "out"
    code = run_cli(["pinch", "--config", cfg, "--out", out])
    assert code == 2


@pytest.mark.parametrize("command,payload", [
    pytest.param("pinch", {"grid": {"n": 2, "L": 8}}, id="pinch_no_body"),
    pytest.param("isomorphic", {"grid": {"n": 2, "L": 8}, "alpha": 0.5,
                                "beta": 1.0}, id="isomorphic_no_body"),
    pytest.param("spectrum", {"grid": {"n": 3, "L": 8},
                              "body": {"type": "ellipsoid", "diag": [2, 1]}},
                 id="ellipsoid_2d_on_n3"),
    pytest.param("pinch", {"grid": {"n": 2, "L": 8},
                           "body": {"type": "ball", "n": 3}},
                 id="ball_3d_on_n2"),
    pytest.param("solve", {"grid": {"n": 2, "L": 8}}, id="solve_no_target"),
    pytest.param("solve", {"grid": {"n": 2, "L": 8},
                           "target": {"body": {"type": "ball"}}},
                 id="solve_no_p"),
    pytest.param("isomorphic", {"grid": {"n": 2, "L": 8},
                                "body": {"type": "ball"}},
                 id="isomorphic_no_alpha_beta_gamma"),
    pytest.param("isomorphic", {"grid": {"n": 2, "L": 8},
                                "body": {"type": "ball"}, "alpha": 0.5},
                 id="isomorphic_no_beta_gamma"),
])
def test_missing_or_mismatched_body_exits_2(tmp_path, command, payload):
    cfg = write_config(tmp_path, "c.json", payload)
    out = tmp_path / "out" / "nested"
    assert run_cli([command, "--config", cfg, "--out", out]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("body,message", [
    pytest.param({"type": "ball", "n": 3}, "body has unknown key 'n'", id="ball_n"),
    pytest.param({"type": "perturbed_ball", "n": 3}, "body has unknown key 'n'",
                 id="perturbed_ball_n"),
    pytest.param({"type": "random", "seed": 1, "n": 3}, "body has unknown key 'n'",
                 id="random_n"),
    pytest.param({"type": "lq", "n": 3}, "body has unknown key 'n'", id="lq_n"),
    pytest.param({"type": "ellipsoid", "diag": [2, 1]},
                 "the ellipsoid has dimension 2, the grid n=3", id="ellipsoid_2d"),
    pytest.param({"type": "ellipsoid", "matrix": np.eye(4).tolist()},
                 "the ellipsoid has dimension 4, the grid n=3", id="ellipsoid_4d"),
])
def test_a_body_takes_the_grids_dimension(tmp_path, capsys, body, message):
    # a body is built in the grid's n: stating n, even the grid's own, names
    # an unknown key, and an ellipsoid, whose matrix sets its size, must
    # match the grid; one config error line, nothing written
    cfg = write_config(tmp_path, "c.json", {"grid": {"n": 3, "L": 8}, "body": body})
    out = tmp_path / "out"
    assert run_cli(["pinch", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("command,payload,flag", [
    pytest.param("bochner", {"grid": {"n": 2, "L": 8}, "body": {"type": "ball"}},
                 ["--seed", -1], id="bochner_seed"),
    pytest.param("verify-all", {}, ["--seed", -1], id="verify_all_seed"),
    pytest.param("sweep", {"grid": {"n": 2, "L": 8}, "bodies": [{"type": "ball"}]},
                 ["--threads", -4], id="sweep_threads_negative"),
    pytest.param("sweep", {"grid": {"n": 2, "L": 8}, "bodies": [{"type": "ball"}]},
                 ["--threads", 0], id="sweep_threads_zero"),
])
def test_bad_seed_or_threads_exits_2_before_writing(tmp_path, capsys, command, payload,
                                                    flag):
    # a negative --seed or a --threads below 1 is a usage error: exit 2,
    # naming the flag, before the config is run or --out is created
    cfg = write_config(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--config", cfg, "--out", out, *flag])
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err
    assert not out.exists()


_ISO = {"grid": {"n": 2, "L": 8}, "body": {"type": "ball"}, "alpha": 0.5,
        "beta": 1.0}


@pytest.mark.parametrize("command,payload", [
    pytest.param("isomorphic", {"grid": {"n": 2, "L": 8}, "body": {"type": "ball"},
                                "gamma": 5.0, "beta": "x"}, id="iso_beta"),
    pytest.param("isomorphic", {**_ISO, "certificate": ["a", 1.0]},
                 id="iso_certificate"),
    pytest.param("isomorphic", {**_ISO, "certificate": [1.0]},
                 id="iso_certificate_length"),
    pytest.param("isomorphic", {**_ISO, "slack": "x"}, id="iso_slack"),
    pytest.param("isomorphic", {**_ISO, "C": [1]}, id="iso_C"),
    pytest.param("spectrum", {"grid": {"n": 2, "L": 8}, "k": "x"}, id="spectrum_k"),
    pytest.param("spectrum", {"grid": {"n": 2, "L": 8}, "lambda1_tol": "x"},
                 id="spectrum_lambda1_tol"),
    pytest.param("bochner", {"grid": {"n": 2, "L": 8}, "n_fields": "x"},
                 id="bochner_n_fields"),
    pytest.param("bochner", {"grid": {"n": 2, "L": 8}, "field_band": None},
                 id="bochner_field_band"),
    pytest.param("bochner", {"grid": {"n": 2, "L": 8}, "tolerance": "x"},
                 id="bochner_tolerance"),
    pytest.param("pinch", {"grid": {"n": 2, "L": 8}, "body": {"type": "ball"},
                           "optimize": {"iters": "x"}}, id="pinch_iters"),
    pytest.param("solve", {"grid": {"n": 2, "L": 8}, "band": "x",
                           "target": {"p": 0.0, "body": {"type": "ball"}}},
                 id="solve_band"),
    pytest.param("solve", {"grid": {"n": 2, "L": 8}, "max_iter": "x",
                           "target": {"p": 0.0, "body": {"type": "ball"}}},
                 id="solve_max_iter"),
    pytest.param("spectrum", {"grid": {"n": 2, "L": 8}, "degree_max": "x"},
                 id="spectrum_degree_max"),
    pytest.param("sweep", {"grid": {"n": 2, "L": 8},
                           "family": {"type": "random", "count": "x"}},
                 id="sweep_count"),
    pytest.param("sweep", {"grid": {"n": 2, "L": 8},
                           "family": {"type": "random", "seeds": ["x"]}},
                 id="sweep_seeds"),
    pytest.param("sweep", {"grid": {"n": 2, "L": 8}, "family": [1]},
                 id="sweep_family_not_object"),
    pytest.param("isomorphic", {**_ISO, "gauge": "foo"}, id="iso_gauge"),
    pytest.param("isomorphic", {**_ISO, "gauge": "closed"}, id="iso_gauge_closed"),
    pytest.param("isomorphic", {**_ISO, "certificate": [2.0, 1.0]},
                 id="iso_certificate_reversed"),
    pytest.param("isomorphic", {**_ISO, "certificate": [-1.0, 1.0]},
                 id="iso_certificate_nonpositive"),
    pytest.param("isomorphic", {"grid": {"n": 2, "L": 8}, "body": {"type": "ball"},
                                "gamma": 5.0, "certificate": [1.0, 0.5]},
                 id="iso_gamma_certificate_reversed"),
    pytest.param("bochner", {"grid": {"n": 2, "L": 8}, "n_fields": 0},
                 id="bochner_no_fields"),
    pytest.param("bochner", {"grid": {"n": 2, "L": 8}, "field_band": -1},
                 id="bochner_field_band_negative"),
    pytest.param("bochner", {"grid": {"n": 2, "L": 8}, "field_band": 0},
                 id="bochner_field_band_constant"),
    pytest.param("bochner", {"grid": {"n": 2, "L": 8}, "field_band": 9},
                 id="bochner_field_band_above_L"),
    pytest.param("spectrum", {"grid": {"n": 2, "L": 8}, "subspace": "foo"},
                 id="spectrum_subspace"),
    pytest.param("verify-all", {"criteria": ["nope"]}, id="verify_all_criteria"),
    pytest.param("verify-all", {"criteria": []}, id="verify_all_criteria_empty"),
    pytest.param("sweep", {"grid": {"n": 2, "L": 8},
                           "family": {"type": "random", "count": 1, "band": "x"}},
                 id="sweep_family_band"),
    pytest.param("sweep", {"grid": {"n": 2, "L": 8},
                           "family": {"type": "random", "count": 1,
                                      "strength": "x"}},
                 id="sweep_family_strength"),
    pytest.param("sweep", {"grid": {"n": 2, "L": 8}, "bodies": [1]},
                 id="sweep_bodies_not_objects"),
    pytest.param("spectrum", {"grid": {"n": 2, "L": 8}, "kk": 3},
                 id="misspelt_top_level_key"),
    pytest.param("pinch", {"grid": {"n": 2, "L": 8},
                           "body": {"type": "ball", "radius": 2.0}},
                 id="misspelt_body_key"),
    pytest.param("isomorphic", {**_ISO, "gamma": 5.0}, id="iso_gamma_and_alpha"),
    pytest.param("spectrum", {"grid": {"n": 2, "L": 8}, "k": 0}, id="spectrum_k_zero"),
    pytest.param("spectrum", {"grid": {"n": 2, "L": 8}, "k": 1000},
                 id="spectrum_k_above_basis"),
    pytest.param("spectrum", {"grid": {"n": 2, "L": 8}, "degree_max": 2, "k": 10},
                 id="spectrum_k_above_degree_max_basis"),
    pytest.param("spectrum", {"grid": {"n": 2, "L": 8}, "degree_max": 12},
                 id="spectrum_degree_max_above_L"),
    pytest.param("spectrum", {"grid": {"n": 2, "L": 8}, "degree_max": 2, "k": 3,
                              "subspace": "even-nonconstant"},
                 id="spectrum_k_above_even_nonconstant_dimension"),
    pytest.param("isomorphic", {**_ISO, "alpha": -0.5}, id="iso_alpha_nonpositive"),
    pytest.param("isomorphic", {**_ISO, "beta": 0.0}, id="iso_beta_nonpositive"),
    pytest.param("isomorphic", {"grid": {"n": 2, "L": 8}, "body": {"type": "ball"},
                                "gamma": 5.0, "beta": -0.5},
                 id="iso_gamma_beta_nonpositive"),
    pytest.param("pinch", {"grid": {"n": 2, "L": 8},
                           "body": {"type": "perturbed_ball",
                                    "coeffs": [[4, 0, 1.0], [2, 3, 0.5]]}},
                 id="perturbed_ball_bad_order"),
    pytest.param("solve", {"grid": {"n": 2, "L": 16}, "band": 20,
                           "target": {"p": 0.0, "body": {"type": "ball"}}},
                 id="solve_band_above_L"),
    pytest.param("solve", {"grid": {"n": 2, "L": 16}, "band": -1,
                           "target": {"p": 0.0, "body": {"type": "ball"}}},
                 id="solve_band_negative"),
    pytest.param("solve", {"grid": {"n": 2, "L": 16},
                           "target": {"p": 1.5, "body": {"type": "ball"}}},
                 id="solve_p_above_1"),
    pytest.param("solve", {"grid": {"n": 2, "L": 16},
                           "target": {"p": -2.0, "body": {"type": "ball"}}},
                 id="solve_p_at_minus_n"),
    pytest.param("solve", {"grid": {"n": 2, "L": 16}, "max_iter": -3,
                           "target": {"p": 0.0, "body": {"type": "ball"}}},
                 id="solve_max_iter_negative"),
    pytest.param("solve", {"grid": {"n": 2, "L": 16}, "max_iter": 0,
                           "target": {"p": 0.0, "body": {"type": "ball"}}},
                 id="solve_max_iter_zero"),
    pytest.param("pinch", {"grid": {"n": 2, "L": 8},
                           "body": {"type": "perturbed_ball",
                                    "coeffs": [[2, 0, 1.0], [-2, 0, 5.0]]}},
                 id="perturbed_ball_negative_degree"),
    pytest.param("spectrum", {"grid": {"n": 2, "L": 8}, "lambda1_tol": -1e-6},
                 id="spectrum_lambda1_tol_negative"),
    pytest.param("bochner", {"grid": {"n": 2, "L": 8}, "tolerance": -1e-6},
                 id="bochner_tolerance_negative"),
    pytest.param("isomorphic", {**_ISO, "slack": -0.01}, id="iso_slack_negative"),
    pytest.param("pinch", {"grid": {"n": 2, "L": 8}, "body": {"type": "ball"},
                           "optimize": {"iters": 0}},
                 id="pinch_optimize_iters_zero"),
    pytest.param("sweep", {"grid": {"n": 2, "L": 8},
                           "family": {"type": "random"}},
                 id="sweep_family_count_zero"),
    pytest.param("sweep", {"grid": {"n": 2, "L": 8},
                           "family": {"type": "random", "count": 3, "seeds": []}},
                 id="sweep_family_seeds_empty"),
    pytest.param("sweep", {"grid": {"n": 2, "L": 8}, "bodies": []},
                 id="sweep_bodies_empty"),
    # C <= 0 puts the isometric distance budget at or below 1
    pytest.param("isomorphic", {**_ISO, "C": -1.0}, id="iso_C_negative"),
    pytest.param("isomorphic", {**_ISO, "C": 0}, id="iso_C_zero"),
    # alpha = sqrt((gamma / (1 + beta))^2 - 1), whose square would overflow
    pytest.param("isomorphic", {"grid": {"n": 2, "L": 8}, "body": {"type": "ball"},
                                "gamma": 1e200, "beta": 0.3}, id="iso_gamma_overflow"),
    # an integer JSON number beyond every float
    pytest.param("isomorphic", {**_ISO, "alpha": 10**400}, id="iso_alpha_beyond_float"),
    # a given alpha whose square would overflow, like one derived from gamma
    pytest.param("isomorphic", {**_ISO, "alpha": 1e200, "beta": 1},
                 id="iso_alpha_square_overflow"),
])
def test_non_numeric_optional_key_exits_2(tmp_path, command, payload):
    cfg = write_config(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert run_cli([command, "--config", cfg, "--out", out]) == 2
    assert not out.exists()


def test_out_naming_a_file_exits_2(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "grid": {"n": 2, "L": 8},
        "body": {"type": "ball"},
    })
    existing = tmp_path / "existing.txt"
    existing.write_text("keep me\n")
    for out in (existing, existing / "sub"):
        assert run_cli(["pinch", "--config", cfg, "--out", out]) == 2
        assert existing.read_text() == "keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "existing.txt"]


_NOT_STRONGLY_CONVEX = {"type": "perturbed_ball", "eps": 1.5}


@pytest.mark.parametrize("command,payload", [
    pytest.param("spectrum", {"body": _NOT_STRONGLY_CONVEX}, id="spectrum_body"),
    pytest.param("bochner", {"body": _NOT_STRONGLY_CONVEX}, id="bochner_body"),
    pytest.param("pinch", {"body": _NOT_STRONGLY_CONVEX}, id="pinch_body"),
    pytest.param("solve", {"target": {"p": 0.5, "body": _NOT_STRONGLY_CONVEX}},
                 id="solve_target_body"),
    pytest.param("isomorphic", {"body": _NOT_STRONGLY_CONVEX, "alpha": 0.5,
                                "beta": 1.0}, id="isomorphic_body"),
])
def test_body_not_strongly_convex_exits_2(tmp_path, capsys, command, payload):
    cfg = write_config(tmp_path, "c.json", {"grid": {"n": 2, "L": 16}, **payload})
    out = tmp_path / "out"
    assert run_cli([command, "--config", cfg, "--out", out]) == 2
    assert not out.exists()
    assert "not strongly convex on the grid" in capsys.readouterr().err


def test_numerical_failure_exit_1_report_written(tmp_path, monkeypatch):
    # a numerical routine that raises on valid input: the report still lands
    def measure_pinching(bg):
        raise ValueError("non-finite derivative on the grid")

    monkeypatch.setattr(cli, "measure_pinching", measure_pinching)
    cfg = write_config(tmp_path, "c.json", {
        "grid": {"n": 2, "L": 8},
        "body": {"type": "ball"},
    })
    out = tmp_path / "out"
    code = run_cli(["pinch", "--config", cfg, "--out", out])
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    assert not report["pass"]
    assert "error" in report
    assert report["version"] == calab.__version__
    assert sorted(report) == ["checks", "command", "config", "error", "pass",
                              "seed", "version"]


def test_report_determinism(tmp_path):
    cfg = {
        "grid": {"n": 2, "L": 16},
        "body": {"type": "random", "seed": 4},
        "k": 6,
    }
    cfgp = write_config(tmp_path, "c.json", cfg)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run_cli(["spectrum", "--config", cfgp, "--out", out,
                        "--seed", 7]) == 0
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]


def test_sweep_rows_and_determinism(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "grid": {"n": 2, "L": 16},
        "family": {"type": "random", "seeds": [0, 1, 2, 2]},
    })
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = run_cli(["sweep", "--config", cfg, "--out", out])
        assert code == 0
        outs.append((out / "sweep.csv").read_text())
    assert outs[0] == outs[1]
    rows = outs[0].strip().split("\n")
    assert rows[0].startswith("index,label,lambda1")
    assert len(rows) == 5
    # duplicate seeds produce identical numbers (columns after the label)
    c3 = rows[3].split(",")[2:]
    c4 = rows[4].split(",")[2:]
    assert c3 == c4


def test_sweep_empty_range(tmp_path, capsys):
    # a family that names no body is a config error: exit 2, nothing written
    cfg = write_config(tmp_path, "c.json", {
        "grid": {"n": 2, "L": 8},
        "family": {"type": "random", "seeds": []},
    })
    out = tmp_path / "out"
    assert run_cli(["sweep", "--config", cfg, "--out", out]) == 2
    assert not out.exists()
    assert "names no body" in capsys.readouterr().err


def test_sweep_threads_match_serial(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "grid": {"n": 2, "L": 16},
        "family": {"type": "random", "seeds": [0, 1, 2, 3]},
    })
    texts = []
    for sub, threads in (("a", 1), ("b", 3)):
        out = tmp_path / sub
        assert run_cli(["sweep", "--config", cfg, "--out", out,
                        "--threads", threads]) == 0
        texts.append((out / "sweep.csv").read_text())
    assert texts[0] == texts[1]


def test_solve_command(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "grid": {"n": 2, "L": 24},
        "target": {"p": 0.5, "body": {"type": "ellipsoid", "diag": [1.5, 1.0]}},
        "band": 16,
    })
    out = tmp_path / "out"
    assert run_cli(["solve", "--config", cfg, "--out", out]) == 0
    sol = json.loads((out / "solution.json").read_text())
    assert sol["converged"]
    assert sol["el_residual"] < 1e-4
    assert (out / "solution_h.csv").exists()


def _ellipse_density_rows(grid_cfg, p):
    # the measure holds the even density at the pair nodes; the CSV lists
    # every node
    g = build_grid(grid_cfg["n"], grid_cfg["L"])
    mu = TargetMeasure.from_body(
        evaluate_on_grid(ellipsoid(np.diag([1.5, 1.0])), g), p)
    return [(i, repr(float(v))) for i, v in enumerate(unfold(g, mu.density))]


def test_solve_density_csv_placed_by_node(tmp_path):
    # shuffled node,value rows give the same solution as the generating body
    grid = {"n": 2, "L": 24}
    rows = _ellipse_density_rows(grid, 0.5)
    np.random.default_rng(0).shuffle(rows)
    csv_path = tmp_path / "density.csv"
    csv_path.write_text("node,value\n"
                        + "".join(f"{i},{v}\n" for i, v in rows))
    sols = []
    for sub, target in (
        ("body", {"p": 0.5, "body": {"type": "ellipsoid", "diag": [1.5, 1.0]}}),
        ("csv", {"p": 0.5, "density_csv": str(csv_path)}),
    ):
        cfg = write_config(tmp_path, f"{sub}.json",
                           {"grid": grid, "target": target, "band": 16})
        out = tmp_path / sub
        assert run_cli(["solve", "--config", cfg, "--out", out]) == 0
        sols.append((out / "solution.json").read_bytes())
    assert sols[0] == sols[1]


@pytest.mark.parametrize("case", ["missing_file", "duplicate_node", "nonpositive",
                                  "odd", "nan_value", "inf_value", "oversized_field"])
def test_solve_bad_density_csv_exits_2(tmp_path, capsys, case):
    # the node list and the density itself (finite, positive, even) are
    # checked before anything is written
    grid = {"n": 2, "L": 24}
    csv_path = tmp_path / "density.csv"
    if case == "oversized_field":
        # one field past the csv module's 131072-character limit
        csv_path.write_text("node,value\n0," + "1" * 140_000 + "\n")
    elif case != "missing_file":
        rows = _ellipse_density_rows(grid, 0.5)
        if case == "duplicate_node":
            rows[1] = (0, rows[1][1])
        elif case == "nonpositive":
            rows[7] = (7, "0.0")
        elif case in ("nan_value", "inf_value"):
            # at node 7 and its antipode, so the density stays even
            value = "nan" if case == "nan_value" else "inf"
            anti = int(build_grid(grid["n"], grid["L"]).antipodal_index[7])
            rows[7], rows[anti] = (7, value), (anti, value)
        else:   # one value whose antipode differs
            rows[7] = (7, repr(1.5 * float(rows[7][1])))
        csv_path.write_text("node,value\n"
                            + "".join(f"{i},{v}\n" for i, v in rows))
    cfg = write_config(tmp_path, "c.json", {
        "grid": grid,
        "target": {"p": 0.5, "density_csv": str(csv_path)},
    })
    out = tmp_path / "out"
    assert run_cli(["solve", "--config", cfg, "--out", out]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("q", [0, 1, -4])
def test_lq_body_with_q_below_2_exits_2(tmp_path, capsys, q):
    # the support function of the l_q ball is the dual norm, with exponent
    # q / (q - 1): it needs q > 1, so q >= 2 for the integer q
    cfg = write_config(tmp_path, "c.json", {"grid": {"n": 3, "L": 8},
                                            "body": {"type": "lq", "q": q}})
    out = tmp_path / "out"
    assert run_cli(["pinch", "--config", cfg, "--out", out]) == 2
    assert not out.exists()
    assert "q must be >= 2" in capsys.readouterr().err


def test_isomorphic_lq_body_without_closed_form_gauge(tmp_path):
    # odd q: 'auto' takes the closed-form gauge LqNormBody(3), as for every
    # q >= 2
    cfg = write_config(tmp_path, "c.json", {"grid": {"n": 3, "L": 8},
                                            "body": {"type": "lq", "q": 3},
                                            "alpha": 0.5, "beta": 1.0})
    out = tmp_path / "out"
    assert run_cli(["isomorphic", "--config", cfg, "--out", out]) == 0
    assert json.loads((out / "report.json").read_text())["pass"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the support overflows
def test_isomorphic_body_support_not_finite_exits_2(tmp_path, capsys):
    # with the auto gauge isomorphic reads only the support of a body with a
    # closed-form gauge, which must still be finite at the pair nodes
    cfg = write_config(tmp_path, "c.json", {
        "grid": {"n": 2, "L": 8}, "alpha": 0.5, "beta": 0.3,
        "body": {"type": "ellipsoid", "diag": [1e200, 1e200]}})
    out = tmp_path / "out"
    assert run_cli(["isomorphic", "--config", cfg, "--out", out]) == 2
    assert not out.exists()
    assert "support function must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("n", [2, 3])
def test_isomorphic_body_support_not_positive_names_the_node(tmp_path, capsys, n):
    # the numeric-gauge path reads the support through evaluate_on_grid: the
    # config error names the first pair node where it is not positive
    body = {"type": "perturbed_ball", "eps": 3.0}
    grid = build_grid(n, 12)
    h = perturbed_ball(n, 3.0).support(grid.pair_nodes)
    i = int(np.flatnonzero(h <= 0)[0])
    cfg = write_config(tmp_path, "c.json", {
        "grid": {"n": n, "L": 12}, "alpha": 0.5, "beta": 0.3, "body": body})
    out = tmp_path / "out"
    assert run_cli(["isomorphic", "--config", cfg, "--out", out]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith(
        "config error: bad body: support function must be positive and finite on "
        f"the grid: pair node {i} {grid.pair_nodes[i]} reads ")


@pytest.mark.parametrize("degree_max", [0, 1])
def test_spectrum_empty_even_nonconstant_subspace_exits_2(tmp_path, capsys,
                                                          degree_max):
    # no even non-constant function has degree <= 1
    cfg = write_config(tmp_path, "c.json", {
        "grid": {"n": 3, "L": 8}, "degree_max": degree_max, "k": 1,
        "subspace": "even-nonconstant"})
    out = tmp_path / "out"
    assert run_cli(["spectrum", "--config", cfg, "--out", out]) == 2
    assert not out.exists()
    assert "subspace even-nonconstant is empty" in capsys.readouterr().err


def test_spectrum_without_lambda1_fails_check(tmp_path, capsys):
    # with subspace all, k=1 keeps only the constant's zero eigenvalue and
    # degree_max 0 only the constant: lambda1 could never be read, so both
    # are config errors, not a full solve whose lambda1 check fails
    for name, payload in (("k", {"grid": {"n": 3, "L": 8}, "k": 1}),
                          ("degree_max", {"grid": {"n": 2, "L": 8}, "degree_max": 0,
                                          "k": 1})):
        cfg = write_config(tmp_path, "c.json", payload)
        out = tmp_path / "out"
        assert run_cli(["spectrum", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {name} must be in ") and err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("cfg", [
    {"grid": {"n": 3, "L": 20}, "body": {"type": "ball"}, "k": 10},
    {"grid": {"n": 2, "L": 16}, "body": {"type": "random", "seed": 3}},
], ids=["ball_n3", "random_n2"])
def test_spectrum_even_nonconstant_passes_without_lambda1_check(tmp_path, cfg):
    # the linear functions, eigenvalue n - 1, are odd and outside this
    # subspace, so its lambda1 (6 for the ball at n=3) is not checked
    cfg = write_config(tmp_path, "c.json", {**cfg, "subspace": "even-nonconstant"})
    out = tmp_path / "out"
    assert run_cli(["spectrum", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pass"]
    assert "lambda1" not in [c["name"] for c in report["checks"]]
    floor = [c for c in report["checks"] if c["name"] == "brunn_minkowski_floor"][0]
    assert floor["pass"] and floor["value"] >= floor["expected"]


def _floor_record(out):
    report = json.loads((out / "report.json").read_text())
    assert not report["pass"] and "error" not in report
    return [c for c in report["checks"] if c["name"] == "brunn_minkowski_floor"][0]


@pytest.fixture
def scaled_hessian_body(monkeypatch):
    # the unit ball with D^2h x 5: the metric h D^2h is 5 times the round
    # one, so -L_K's spectrum is the round one's over 5 (lambda1 = (n - 1)/5,
    # lambda1_even = 2n/5), below the Brunn-Minkowski floor n - 1
    monkeypatch.setitem(cli.BODY_TYPES, "scaled_hessian",
                        (lambda n: ScaledHessian(ball(1.0, n), 5.0), {}))


@pytest.mark.parametrize("n,least", [(2, 0.8), (3, 1.2)])
def test_spectrum_below_the_brunn_minkowski_floor_exits_1(tmp_path, scaled_hessian_body,
                                                         n, least):
    # lambda1_even lands below n - 1: a failed check, with the report still
    # written
    cfg = write_config(tmp_path, "c.json", {"grid": {"n": n, "L": 16},
                                            "body": {"type": "scaled_hessian"},
                                            "subspace": "even-nonconstant"})
    out = tmp_path / "out"
    assert run_cli(["spectrum", "--config", cfg, "--out", out]) == 1
    floor = _floor_record(out)
    assert not floor["pass"] and floor["expected"] == n - 1
    assert floor["value"] == pytest.approx(least, abs=1e-4)
    assert (out / "spectrum.json").exists()


def test_sweep_below_the_brunn_minkowski_floor_exits_1(tmp_path, scaled_hessian_body):
    # the row's lambda1 (0.2) and lambda1_even (0.8) are both below 1
    cfg = write_config(tmp_path, "c.json", {"grid": {"n": 2, "L": 16},
                                            "bodies": [{"type": "scaled_hessian"}]})
    out = tmp_path / "out"
    assert run_cli(["sweep", "--config", cfg, "--out", out]) == 1
    floor = _floor_record(out)
    assert not floor["pass"] and floor["tolerance"] == 1e-6
    assert floor["value"] == pytest.approx(0.2, abs=1e-4)
    assert (out / "sweep.csv").exists()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("q", [3, 4])
def test_lq_body_is_refused_where_its_hessian_is_read(tmp_path, capsys, q, n):
    # the l_q ball's support ||x||_{q/(q-1)} has D^2h = +inf on the
    # coordinate planes, where the grid has nodes: it is not strongly convex,
    # so every command that reads its D^2h refuses it, isomorphic under the
    # numeric gauge included, and nothing is written; a sweep writes the
    # reason in the body's row
    body = {"type": "lq", "q": q}
    runs = [("spectrum", {"body": body, "subspace": subspace})
            for subspace in ("all", "even-nonconstant")]
    runs += [(command, {"body": body}) for command in ("pinch", "bochner")]
    runs.append(("isomorphic", {"body": body, "alpha": 0.5, "beta": 0.3,
                                "gauge": "numeric"}))
    for i, (command, payload) in enumerate(runs):
        cfg = write_config(tmp_path, f"c{i}.json", {"grid": {"n": n, "L": 8}, **payload})
        out = tmp_path / f"out{i}"
        assert run_cli([command, "--config", cfg, "--out", out]) == 2, command
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: bad body: ") and "not strongly convex" in err
    cfg = write_config(tmp_path, "sweep.json", {"grid": {"n": n, "L": 8}, "bodies": [body]})
    assert run_cli(["sweep", "--config", cfg, "--out", tmp_path / "sweep"]) == 1
    row = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1]
    assert row.endswith("non-finite derivative on the grid: not strongly convex")


def test_isomorphic_command(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "grid": {"n": 2, "L": 20},
        "body": {"type": "ellipsoid", "diag": [1.8, 1.0]},
        "alpha": 1.0,
        "beta": 1.0,
        "certificate": [1.0, 1.8],
    })
    out = tmp_path / "out"
    assert run_cli(["isomorphic", "--config", cfg, "--out", out]) == 0
    assert (out / "iso_params.json").exists()
    assert (out / "iso_verification.csv").exists()


def test_isomorphic_large_body(tmp_path):
    # construct rescales by 1/r_in: a large body must not read as a
    # singular linear map
    cfg = write_config(tmp_path, "c.json", {
        "grid": {"n": 3, "L": 8},
        "body": {"type": "ball", "r": 50000.0},
        "alpha": 0.5,
        "beta": 0.3,
    })
    out = tmp_path / "out"
    assert run_cli(["isomorphic", "--config", cfg, "--out", out]) == 0
    assert json.loads((out / "report.json").read_text())["pass"]


def test_isomorphic_gamma_target(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "grid": {"n": 2, "L": 20},
        "body": {"type": "ellipsoid", "diag": [1.8, 1.0]},
        "gamma": 8.0,
        "certificate": [1.0, 1.8],
    })
    out = tmp_path / "out"
    assert run_cli(["isomorphic", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    # gamma = (1+beta) sqrt(1+alpha^2) is reproduced by the derived pair
    p = report["result"]["params"]
    gamma = (1.0 + p["beta"]) * (1.0 + p["alpha"] ** 2) ** 0.5
    assert abs(gamma - 8.0) < 1e-9
    assert "p_gamma_D" in report["result"]
    assert "isometric_gamma" in report["result"]


def test_bochner_command(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "grid": {"n": 2, "L": 24},
        "body": {"type": "random", "seed": 2},
        "n_fields": 5,
        "tolerance": 1e-6,
    })
    out = tmp_path / "out"
    assert run_cli(["bochner", "--config", cfg, "--out", out]) == 0


def test_verify_all_subset(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "criteria": ["thresholds"],
    })
    out = tmp_path / "out"
    assert run_cli(["verify-all", "--config", cfg, "--out", out]) == 0
    rec = json.loads((out / "criteria.json").read_text())
    assert rec["criteria"][0]["criterion"] == "thresholds"
    assert rec["criteria"][0]["passed"]


@pytest.mark.parametrize("cfg", [{}, {"criteria": None}], ids=["absent", "null"])
def test_verify_all_without_a_criteria_list_runs_every_criterion(cfg):
    # only an empty list is rejected (exit 2); no list selects them all
    assert cli.validate("verify-all", cfg, 0)["criteria"] is None


def test_command_config_mismatch_exits_2(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "command": "sweep",
        "grid": {"n": 2, "L": 8},
    })
    out = tmp_path / "out"
    assert run_cli(["spectrum", "--config", cfg, "--out", out]) == 2


def test_console_entry_point(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "grid": {"n": 2, "L": 8},
        "body": {"type": "ball"},
        "k": 4,
    })
    out = tmp_path / "out"
    # the child imports calab from the same tree as this process
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "calab.cli", "spectrum", "--config", str(cfg),
         "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "checks passed" in proc.stdout


def test_config_too_large_to_allocate_exits_2(tmp_path):
    # L = 10^6 asks validate for a 7.28 TiB Gauss-Legendre matrix: a config
    # error (exit 2, one line, nothing written), not a MemoryError traceback.
    # The child caps its own address space at 2 GiB after importing calab, so
    # the allocation fails there whatever the machine's overcommit policy
    cfg = write_config(tmp_path, "c.json", {"grid": {"n": 3, "L": 1000000},
                                            "body": {"type": "ball", "r": 1.0}})
    out = tmp_path / "out"
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import resource, sys; from calab import cli; "
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
            "sys.exit(cli.main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", code, "spectrum", "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
             "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])})
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error: ") and proc.stderr.count("\n") == 1
    assert not out.exists()


def test_memory_error_in_validate_names_the_failure(tmp_path, capsys, monkeypatch):
    # a bare MemoryError has an empty message; the config error line still
    # says what failed
    def build_grid(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "build_grid", build_grid)
    cfg = write_config(tmp_path, "c.json", {"grid": {"n": 2, "L": 8},
                                            "body": {"type": "ball"}})
    out = tmp_path / "out"
    assert run_cli(["pinch", "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err == ("config error: out of memory while building "
                                       "the grid or bodies (MemoryError)\n")
    assert not out.exists()


def test_memory_error_while_running_still_writes_the_report(tmp_path, monkeypatch):
    # only validate's MemoryError is a config error: one raised by the
    # command itself is a failure of the run, exit 1 with the report written
    def run(values, threads):
        raise MemoryError("Unable to allocate 1.00 TiB")

    monkeypatch.setitem(cli.COMMAND_TABLE, "pinch",
                        cli.COMMAND_TABLE["pinch"]._replace(run=run))
    cfg = write_config(tmp_path, "c.json", {"grid": {"n": 2, "L": 8},
                                            "body": {"type": "ball"}})
    out = tmp_path / "out"
    assert run_cli(["pinch", "--config", cfg, "--out", out]) == 1
    assert "MemoryError" in json.loads((out / "report.json").read_text())["error"]


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_sweep_config_report_is_the_same_at_two_threads(tmp_path):
    # the sweep's bodies share one grid, and each polar fills the grid's fold
    # cache with the same read-only value whichever thread stores it
    reports = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        assert run_cli(["sweep", "--config", CONFIGS / "sweep_random_n2.json",
                        "--out", out, "--threads", threads]) == 0
        reports.append([(out / name).read_bytes() for name in ("report.json", "sweep.csv")])
    assert reports[0] == reports[1]


def _config_command(stem: str) -> str:
    """The command a shipped config's file name names: spectrum_ball_n3 ->
    spectrum, verify_all -> verify-all."""
    (command,) = [c for c in cli.COMMAND_TABLE
                  if stem == c.replace("-", "_")
                  or stem.startswith(c.replace("-", "_") + "_")]
    return command


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_shipped_config_runs_and_reproduces(tmp_path, config):
    command = _config_command(Path(config).stem)
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert run_cli([command, "--config", CONFIGS / config, "--out", out]) == 0
        outs.append({p.name: p.read_bytes() for p in out.iterdir()
                     if p.name != "timing.txt"})
    assert "report.json" in outs[0]
    assert outs[0] == outs[1]


_PINCH_ELLIPSOID = {"grid": {"n": 3, "L": 16},
                    "body": {"type": "ellipsoid", "diag": [2.0, 1.0, 1.0]}}


@pytest.mark.parametrize("config,iters,stopped_by", [
    (_PINCH_ELLIPSOID, 200, "tolerance"),
    ({"grid": {"n": 2, "L": 8}, "body": {"type": "ellipsoid", "diag": [1.5, 1.0]}},
     3, "iteration cap"),
    # the stopping test first holds at iteration 144: met on the last allowed
    # iteration, the search stopped by its tolerance, not by the cap
    (_PINCH_ELLIPSOID, 144, "tolerance"),
])
def test_pinch_report_explains_its_search(tmp_path, config, iters, stopped_by):
    # the optimized block carries the image T (exactly symmetric, unit
    # determinant), the Nelder-Mead iteration count and why the search
    # stopped; a search stopped by the cap ran every iteration
    cfg = write_config(tmp_path, "c.json", {**config, "optimize": {"iters": iters}})
    out = tmp_path / "out"
    assert run_cli(["pinch", "--config", cfg, "--out", out]) == 0
    opt = json.loads((out / "pinching.json").read_text())["optimized"]
    T = np.array(opt["T"])
    n = config["grid"]["n"]
    assert T.shape == (n, n) and np.array_equal(T, T.T)
    assert abs(np.linalg.det(T) - 1.0) < 1e-12
    assert opt["stopped_by"] == stopped_by
    assert opt["iterations"] <= iters
    if stopped_by == "iteration cap":
        assert opt["iterations"] == iters


# ---------------------------------------------------------------------------
# the bounds of COMMAND_TABLE, read off the table itself

_BOUND_BASES = {  # a valid config of each command that gives every bounded key
    "spectrum": {"grid": {"n": 2, "L": 8}, "k": 2},
    "bochner": {"grid": {"n": 2, "L": 8}, "body": {"type": "ball"}},
    "pinch": {"grid": {"n": 2, "L": 8}, "body": {"type": "ball"},
              "optimize": {"iters": 200}},
    "isomorphic": {**_ISO, "certificate": [1.0, 1.8]},
    "solve": {"grid": {"n": 2, "L": 16}, "target": {"p": 0.5, "body": {"type": "ball"}}},
}


def _bounded_paths(kind, path=()):
    """(path, reader) of each _bounded reader in a kind: a command's keys, a
    nested object's or a fixed-length list's items."""
    if isinstance(kind, dict):
        for key, (sub, _) in kind.items():
            yield from _bounded_paths(sub, path + (key,))
    elif isinstance(kind, list) and Ellipsis not in kind:
        for i, sub in enumerate(kind):
            yield from _bounded_paths(sub, path + (i,))
    elif getattr(kind, "func", None) is cli._in_range:
        yield path, kind


_BOUNDED = [(command, path, reader) for command, entry in cli.COMMAND_TABLE.items()
            for path, reader in _bounded_paths(entry.keys)]


def _step(kind, x, direction):
    """The next number of ``kind`` after x, up (+1) or down (-1)."""
    return x + direction if kind is int else math.nextafter(x, direction * math.inf)


def _with(config, path, value):
    """A copy of ``config`` with ``value`` at ``path``."""
    config = copy.deepcopy(config)
    *parents, last = path
    node = config
    for key in parents:
        node = node[key]
    node[last] = value
    return config


def test_bounded_keys_are_every_single_key_range():
    assert sorted(f"{c}:{'.'.join(map(str, p))}" for c, p, _ in _BOUNDED) == sorted([
        "spectrum:degree_max", "spectrum:k", "spectrum:lambda1_tol",
        "bochner:n_fields", "bochner:field_band", "bochner:tolerance",
        "pinch:optimize.iters",
        "isomorphic:alpha", "isomorphic:beta", "isomorphic:certificate.0",
        "isomorphic:slack", "isomorphic:C",
        "solve:target.p", "solve:band", "solve:max_iter"])


@pytest.mark.parametrize("command,path,reader", _BOUNDED,
                         ids=[f"{c}-{'.'.join(map(str, p))}" for c, p, _ in _BOUNDED])
def test_each_bound_is_where_the_table_puts_it(tmp_path, capsys, command, path, reader):
    # at each bound: the value on its inside passes validate (the bound
    # itself when it is closed, the nearest number inside when it is open)
    # and the value one step out raises ConfigError; through cli.main that
    # one exits 2 with a one-line config error and creates no --out
    kind, low, high, open_ = reader.args
    base = _BOUND_BASES[command]
    values = cli.validate(command, base, 0)
    edges = [(low, -1)] + ([] if high is None else [(high, 1)])
    for bound, outward in edges:
        bound = bound(values) if callable(bound) else bound
        inside = _step(kind, bound, -outward) if open_ else bound
        outside = bound if open_ else _step(kind, bound, outward)
        cli.validate(command, _with(base, path, inside), 0)
        with pytest.raises(cli.ConfigError):
            cli.validate(command, _with(base, path, outside), 0)
        cfg = write_config(tmp_path, "c.json", _with(base, path, outside))
        out = tmp_path / "out"
        assert run_cli([command, "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert not out.exists()


# numeric keys whose value does not size the work validate does (the grid,
# a random body's band and a sweep family's count do, and are left out)
_FUZZ_KEYS = {
    "spectrum": [("k",), ("lambda1_tol",), ("degree_max",)],
    "bochner": [("n_fields",), ("field_band",), ("tolerance",)],
    "pinch": [("optimize", "iters")],
    "isomorphic": [("gamma",), ("alpha",), ("beta",), ("certificate",),
                   ("slack",), ("C",)],
    "solve": [("target", "p"), ("band",), ("max_iter",)],
}
_NUMBERS = st.one_of(st.integers(-(10**400), 10**400), st.floats(),
                     st.sampled_from([0, -1, 1e200, 1e308, -1e308, 10**400]))
_VALUES = st.one_of(_NUMBERS, st.booleans(), st.none(), st.text(max_size=3),
                    st.lists(_NUMBERS, max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_FUZZ_KEYS)).flatmap(lambda command: st.tuples(
    st.just(command),
    st.dictionaries(st.sampled_from(_FUZZ_KEYS[command]), _VALUES, min_size=1))))
@example(("isomorphic", {("gamma",): 1e200, ("beta",): 0.3}))
@example(("isomorphic", {("gamma",): 1e308}))
@example(("isomorphic", {("alpha",): 1e200, ("beta",): 1}))
def test_validate_returns_or_raises_config_error(case):
    # whatever numbers, booleans, strings or lists these keys hold, validate
    # either returns or raises ConfigError; an alpha, given or derived from
    # gamma, is positive and the construction can square it
    command, drawn = case
    config = {k: x for k, x in _BOUND_BASES[command].items() if k not in ("alpha", "beta")}
    for path, value in drawn.items():
        config = _with(config, path, value)
    try:
        values = cli.validate(command, config, 0)
    except cli.ConfigError:
        return
    if command == "isomorphic":
        assert values["alpha"] > 0 and math.isfinite(values["alpha"] * values["alpha"])

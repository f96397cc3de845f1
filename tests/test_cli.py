"""Tests for the command-line front end: exit codes, files, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from calab import cli
from calab.bodies import ellipsoid, evaluate_on_grid
from calab.minkowski import TargetMeasure
from calab.sphere import build_grid

from oracles import unfold


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


def test_malformed_config_exits_2_no_partial_outputs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    code = run_cli(["spectrum", "--config", bad, "--out", out])
    assert code == 2
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


def test_numerical_failure_exit_1_report_written(tmp_path):
    # a wildly non-convex body: grid evaluation raises, report still lands
    cfg = write_config(tmp_path, "c.json", {
        "grid": {"n": 2, "L": 8},
        "body": {"type": "perturbed_ball", "eps": 5.0},
    })
    out = tmp_path / "out"
    code = run_cli(["pinch", "--config", cfg, "--out", out])
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    assert not report["pass"]
    assert "error" in report


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
                                  "odd", "nan_value", "inf_value"])
def test_solve_bad_density_csv_exits_2(tmp_path, case):
    # the node list and the density itself (finite, positive, even) are
    # checked before anything is written
    grid = {"n": 2, "L": 24}
    csv_path = tmp_path / "density.csv"
    if case != "missing_file":
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


def test_spectrum_without_lambda1_fails_check(tmp_path):
    # k=1 keeps only the zero eigenvalue: lambda1 is null and its check
    # fails, but the run still writes its full report
    cfg = write_config(tmp_path, "c.json", {"grid": {"n": 2, "L": 8}, "k": 1})
    out = tmp_path / "out"
    assert run_cli(["spectrum", "--config", cfg, "--out", out]) == 1
    report = json.loads((out / "report.json").read_text())
    assert "error" not in report
    lam = [c for c in report["checks"] if c["name"] == "lambda1"][0]
    assert lam["value"] is None and not lam["pass"]
    assert report["result"]["spectrum"]["lambda1"] is None
    assert (out / "spectrum.json").exists()


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


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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

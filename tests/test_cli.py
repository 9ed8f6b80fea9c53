import argparse
import contextlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freezing_dyson import cli, stochastic
from freezing_dyson.cli import _fmt, main, read_root_tuple
from freezing_dyson.dynamics import GkTrajectory
from freezing_dyson.elemsym import MonicPolynomial, RootTuple


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def body_rows(text):
    return [line for line in text.strip().splitlines() if not line.startswith("#")]


def test_zeros_hermite_csv(capsys):
    code, out, _ = run_cli(["zeros", "--family", "hermite", "--n", "3"], capsys)
    assert code == 0
    row = body_rows(out)[0].split(",")
    vals = [float(v) for v in row]
    assert np.allclose(vals, [-math.sqrt(3), 0.0, math.sqrt(3)], atol=1e-12)
    assert row[1] == "0"  # middle zero exactly


def test_zeros_laguerre(capsys):
    code, out, _ = run_cli(["zeros", "--family", "laguerre", "--n", "1", "--alpha", "2"], capsys)
    assert code == 0
    assert body_rows(out) == ["2"]
    code, out, _ = run_cli(["zeros", "--family", "laguerre", "--n", "2", "--alpha", "3"], capsys)
    vals = [float(v) for v in body_rows(out)[0].split(",")]
    assert np.allclose(vals, [2.0, 6.0], atol=1e-12)


def test_zeros_bad_params_exit_2(capsys):
    code, _, err = run_cli(["zeros", "--family", "laguerre", "--n", "2", "--alpha", "0"], capsys)
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli(["zeros", "--n", "2"], capsys)  # family missing
    assert code == 2
    code, _, err = run_cli(["zeros", "--family", "hermite", "--n", "3", "--t", "nan"], capsys)
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli(["zeros", "--family", "laguerre", "--n", "3", "--alpha", "nan"], capsys)
    assert code == 2


def test_convolve_files(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("-1,1\n")
    b.write_text("-1,1\n")
    code, out, _ = run_cli(["convolve", "--a", str(a), "--b", str(b)], capsys)
    assert code == 0
    vals = [float(v) for v in body_rows(out)[0].split(",")]
    assert np.allclose(vals, [-math.sqrt(2), math.sqrt(2)], atol=1e-12)


def test_convolve_non_finite_tuple_exit_2(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    b.write_text("-1,1\n")
    for row in ("nan,1\n", "-1,inf\n"):
        a.write_text(row)
        code, _, err = run_cli(["convolve", "--a", str(a), "--b", str(b)], capsys)
        assert code == 2
        assert "finite" in err


def test_convolve_zero_tuple_identity(tmp_path, capsys):
    a = tmp_path / "a.csv"
    z = tmp_path / "z.csv"
    a.write_text("-2,0.5,3\n")
    z.write_text("0,0,0\n")
    code, out, _ = run_cli(["convolve", "--a", str(a), "--b", str(z)], capsys)
    vals = [float(v) for v in body_rows(out)[0].split(",")]
    assert code == 0
    assert np.allclose(vals, [-2, 0.5, 3], atol=1e-12)


def test_convolve_dimension_mismatch_exit_2(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("-1,1\n")
    b.write_text("-1,0,1\n")
    code, _, err = run_cli(["convolve", "--a", str(a), "--b", str(b)], capsys)
    assert code == 2
    assert "dimension mismatch" in err


def test_unsorted_tuple_resorted_with_warning(tmp_path, capsys):
    f = tmp_path / "t.csv"
    f.write_text("3,1,2\n")
    t = read_root_tuple(str(f))
    err = capsys.readouterr().err
    assert t.roots == (1.0, 2.0, 3.0)
    assert "re-sorting" in err


def test_limit_gaussian_zero_initial(tmp_path, capsys):
    init = tmp_path / "init.csv"
    init.write_text("0,0,0\n")
    code, out, err = run_cli(
        ["limit", "--kind", "gaussian", "--initial", str(init), "--t", "1", "--verify-ode"],
        capsys,
    )
    assert code == 0
    vals = [float(v) for v in body_rows(out)[0].split(",")]
    assert np.allclose(vals, [-math.sqrt(3), 0.0, math.sqrt(3)], atol=1e-10)
    disc = float(err.split("max route discrepancy:")[1].strip().splitlines()[0])
    assert disc < 1e-8


def test_limit_gaussian_zero_start_small_t_matches_hermite_zeros(tmp_path, capsys):
    # both routes once returned a false triple root here, with a route
    # discrepancy of 3e-20 that --verify-ode could not flag
    init = tmp_path / "init.csv"
    init.write_text("0,0,0,0\n")
    code, out, _ = run_cli(
        ["limit", "--kind", "gaussian", "--initial", str(init), "--t", "1e-10", "--verify-ode"],
        capsys,
    )
    assert code == 0
    got = np.array([float(v) for v in body_rows(out)[0].split(",")])
    code, out, _ = run_cli(["zeros", "--family", "hermite", "--n", "4", "--t", "1e-10"], capsys)
    assert code == 0
    expect = np.array([float(v) for v in body_rows(out)[0].split(",")])
    assert np.max(np.abs(got - expect) / np.abs(expect)) < 1e-14


def test_limit_laguerre_closed_form_rejection(tmp_path, capsys):
    init = tmp_path / "init.csv"
    init.write_text("0,0\n")
    argv = ["limit", "--kind", "laguerre", "--initial", str(init), "--t", "1", "--alpha", "1.5"]
    # limit answers from one route, so there is no --closed-form flag and no
    # closed_form config key to choose another
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--closed-form"])
    assert exc.value.code == 2
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"closed_form": True}))
    code, _, err = run_cli(argv + ["--config", str(cfgfile)], capsys)
    assert code == 2
    assert "unknown config key 'closed_form'" in err
    # alpha <= N - 1/2 is outside the closed form's domain, not the ODE
    # route's, which gives the Laguerre zeros from the zero start
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    vals = [float(v) for v in body_rows(out)[0].split(",")]
    from freezing_dyson.finfree import laguerre_roots

    assert np.allclose(vals, laguerre_roots(2, 1.5, 1.0).roots, atol=1e-9)


def test_limit_verify_ode_needs_the_closed_form(tmp_path, capsys, monkeypatch):
    # alpha <= N - 1/2 puts the closed form out of its domain: --verify-ode
    # once compared the ODE route with itself and reported a discrepancy of 0
    init = tmp_path / "init.csv"
    init.write_text("0.5,1.0\n")
    argv = ["limit", "--kind", "laguerre", "--initial", str(init), "--alpha", "1.5", "--t", "1"]
    solves = []
    real = cli.roots_of_monic
    monkeypatch.setattr(cli, "roots_of_monic", lambda p: solves.append(p) or real(p))
    code, out, err = run_cli(argv + ["--verify-ode"], capsys)
    assert code == 2 and out == "" and solves == []  # refused before any solve
    assert err.splitlines() == [
        "error: closed form needs alpha > N - 1/2 (got alpha=1.5, N=2); "
        "the ODE route has no such restriction"
    ]
    # without the flag the ODE route answers, as at every alpha, solved once
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == "" and len(solves) == 1
    assert "route_discrepancy" not in out


@pytest.mark.parametrize("kind", ["gaussian", "laguerre"])
def test_limit_verify_ode_solves_once_and_reports_unequal_routes(kind, tmp_path, capsys, monkeypatch):
    init = tmp_path / "init.csv"
    init.write_text("0.3,1.1,2.5\n")
    argv = ["limit", "--kind", kind, "--initial", str(init), "--t", "0.7", "--alpha", "4.25",
            "--verify-ode"]
    solves = []
    solve = cli.roots_of_monic
    monkeypatch.setattr(cli, "roots_of_monic", lambda p: solves.append(p) or solve(p))
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and len(solves) == 1
    config = json.loads(out.splitlines()[0][2:])["config"]
    assert config["route_discrepancy"] == 0.0 and err == "max route discrepancy: 0\n"
    # an ODE route whose coefficients differ (its constant term moved by
    # about 1e-9 relative) is solved on its own and its root gap reported
    ode = GkTrajectory.polynomial_at

    def moved(traj, t):
        c = ode(traj, t).ints
        alpha = [-v if k % 2 else v for k, v in enumerate(c[:-1] + (c[-1] + (c[0] >> 30),))]
        return MonicPolynomial.from_integers(alpha)

    monkeypatch.setattr(GkTrajectory, "polynomial_at", moved)
    solves.clear()
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and len(solves) == 2
    gap = float(np.max(np.abs(solve(solves[0]).as_array() - solve(solves[1]).as_array())))
    assert 0.0 < gap < 1e-8
    assert json.loads(out.splitlines()[0][2:])["config"]["route_discrepancy"] == gap


def test_limit_laguerre_verify_ode_at_small_t(tmp_path, capsys):
    # the closed route once exited 3 on this start
    init = tmp_path / "init.csv"
    init.write_text("0.36,1.49,1.56,2.42,3.03,3.17,3.21\n")
    code, _, err = run_cli(
        [
            "limit", "--kind", "laguerre", "--initial", str(init),
            "--t", "1e-4", "--alpha", "6.98", "--verify-ode",
        ],
        capsys,
    )
    assert code == 0
    disc = float(err.split("max route discrepancy:")[1].strip().splitlines()[0])
    assert disc < 1e-8


def test_moments_csv(capsys):
    code, out, _ = run_cli(["moments", "--n", "3", "--max", "4"], capsys)
    assert code == 0
    assert body_rows(out)[0] == "1,0,2,0,6"


def test_simulate_outputs_and_reproducibility(tmp_path, capsys):
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    argv = [
        "simulate", "--kind", "dyson", "--n", "3", "--beta", "100", "--t", "0.1",
        "--dt", "0.01", "--paths", "5", "--seed", "9", "--record", "0.05,0.1",
    ]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()  # bit-exact rerun
    summary = json.loads((tmp_path / "run1.csv.summary.json").read_text())
    assert "ek_mean" in summary and "gk_target" in summary
    rows = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 2 * 5  # record times x paths
    capsys.readouterr()


def test_simulate_json_summary_pass(tmp_path):
    out = tmp_path / "lag.csv"
    argv = [
        "simulate", "--kind", "laguerre", "--n", "2", "--beta", "50", "--alpha", "1.0",
        "--t", "0.2", "--dt", "0.002", "--paths", "400", "--seed", "4",
        "--out", str(out),
    ]
    assert main(argv) == 0
    summary = json.loads((out.parent / (out.name + ".summary.json")).read_text())
    assert summary["all_passed"] is True


def test_clt_static_json(tmp_path):
    out = tmp_path / "clt.json"
    argv = [
        "clt", "--kind", "gaussian", "--n", "2", "--beta", "10000",
        "--samples", "20000", "--seed", "12", "--out", str(out),
    ]
    assert main(argv) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["config"]["mode"] == "static"
    assert len(doc["rotated"]) == 2
    assert doc["diag_pass"] is True


@pytest.mark.parametrize("mode", ["static", "primitive"])
def test_clt_gaussian_at_one_particle(mode, tmp_path):
    # He_1(x) = x: a 1 x 1 Jacobi matrix with the one zero 0, as the
    # Laguerre family already allowed
    out = tmp_path / "clt.json"
    argv = [
        "clt", "--kind", "gaussian", "--mode", mode, "--n", "1", "--beta", "1e4",
        "--samples", "2000", "--seed", "1", "--out", str(out),
    ]
    assert main(argv) == 0
    doc = json.loads(out.read_text())
    if mode == "static":
        assert len(doc["rotated"]) == 1 and doc["diag_pass"] is True
    else:
        assert len(doc["variances"]) == 1 and doc["variance_pass"] is True


@pytest.mark.parametrize("kind", ["gaussian", "laguerre"])
def test_clt_primitive_json(kind, tmp_path):
    out = tmp_path / "clt.json"
    argv = [
        "clt", "--kind", kind, "--mode", "primitive", "--n", "3", "--beta", "10000",
        "--samples", "2000", "--seed", "5", "--alpha", "2.5", "--out", str(out),
    ]
    assert main(argv) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {
        "meta", "variances", "targets", "var_stderr", "correlations", "samples",
        "variance_pass", "independence_pass",
    }
    assert doc["meta"]["config"]["mode"] == "primitive"
    assert doc["meta"]["config"]["alpha"] == 2.5
    assert len(doc["variances"]) == 3 and doc["samples"] == 2000


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--kind", "dyson", "--n", "4", "--beta", "2", "--t", "0.01",
         "--dt", "0.001", "--paths", "1000000000000000", "--seed", "1"],
        ["clt", "--kind", "gaussian", "--n", "3", "--beta", "1e4",
         "--samples", "1000000000000000", "--seed", "1"],
        ["clt", "--kind", "gaussian", "--mode", "primitive", "--n", "3", "--beta", "1e4",
         "--samples", "1000000000000000", "--seed", "1"],
    ],
    ids=["simulate", "clt-static", "clt-primitive"],
)
def test_request_too_large_for_memory_exit_2(argv, capsys, monkeypatch):
    # these sizes fail before anything is allocated; one shard, so no fork
    monkeypatch.setattr(stochastic, "_usable_cores", lambda: 1)
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: not enough memory") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["static", "primitive"])
def test_clt_laguerre_without_alpha_exit_2(mode, tmp_path, capsys):
    out = tmp_path / "clt.json"
    code, _, err = run_cli(
        ["clt", "--kind", "laguerre", "--mode", mode, "--n", "3", "--beta", "10000",
         "--samples", "200", "--seed", "5", "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert "--alpha" in err
    assert not out.exists()


def test_simulate_laguerre_without_alpha_exit_2(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code, stdout, err = run_cli(
        ["simulate", "--kind", "laguerre", "--n", "3", "--beta", "100", "--t", "0.01",
         "--dt", "0.001", "--paths", "2", "--seed", "1", "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert err == "error: missing required parameter --alpha\n"
    assert stdout == ""
    assert not out.exists()


def test_simulate_csv_matches_per_row_template(tmp_path):
    # the time of a record slot is formatted once for all its rows; the bytes
    # must be those of one "%.17g,%d,%.17g,..." template applied per row, at
    # record times that need all 17 digits and at a repeated slot
    out = tmp_path / "sim.csv"
    record = (0.0, 0.03, 0.07, 0.07, 0.1)
    argv = [
        "simulate", "--kind", "laguerre", "--n", "3", "--beta", "3", "--alpha", "0.7",
        "--t", "0.1", "--dt", "0.01", "--paths", "7", "--seed", "4",
        "--record", ",".join(map(str, record)), "--out", str(out),
    ]
    assert main(argv) == 0
    cfg = stochastic.SimConfig(
        beta=3.0, n=3, t_end=0.1, dt=0.01, initial=RootTuple((0.0,) * 3),
        seed=4, paths=7, record_times=record, alpha=0.7,
    )
    data = stochastic.simulate_laguerre(cfg).data
    template = "%.17g,%d" + ",%.17g" * 3
    expect = [
        template % (t, p, *data[p, slot]) for slot, t in enumerate(record) for p in range(7)
    ]
    assert "%.17g" % 0.07 == "0.070000000000000007"
    assert out.read_bytes().split(b"\n", 2)[2] == ("\n".join(expect) + "\n").encode()


def test_simulate_csv_matches_per_value_formatting(tmp_path, monkeypatch):
    # the row template must write every value exactly as _fmt does, including
    # signed zeros, subnormals and values that need all 17 digits; the values
    # are swapped in where the rows are formatted, in the process that
    # simulated their paths
    special = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.0 / 3.0, -0.1, 1e22, 123.0]
    rng = np.random.default_rng(3)
    real = cli._particle_rows
    blocks = []

    def swapped(cfg, data, lo):
        data = rng.choice(special, data.shape) * rng.choice([1.0, np.pi], data.shape)
        data[0, 0] = rng.standard_normal(cfg.n) * 10.0 ** rng.uniform(-300, 20, cfg.n)
        blocks.append((lo, data))
        return real(cfg, data, lo)

    monkeypatch.setattr(cli, "_particle_rows", swapped)
    out = tmp_path / "sim.csv"
    argv = [
        "simulate", "--kind", "dyson", "--n", "4", "--beta", "2", "--t", "0.1",
        "--dt", "0.01", "--paths", "30", "--seed", "1", "--record", "0,0.05,0.1",
        "--out", str(out),
    ]
    with np.errstate(all="ignore"):
        assert main(argv) == 0
    assert [lo for lo, _ in blocks] == [0]  # one range, formatted here
    data = blocks[0][1]
    expect = [
        ",".join([_fmt(t), str(p)] + [_fmt(v) for v in data[p, slot]])
        for slot, t in enumerate((0.0, 0.05, 0.1))
        for p in range(30)
    ]
    assert out.read_bytes().split(b"\n", 2)[2] == ("\n".join(expect) + "\n").encode()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"family": "hermite", "n": 2, "t": 1.0}))
    code, out, _ = run_cli(["zeros", "--config", str(cfgfile), "--n", "3"], capsys)
    assert code == 0
    vals = [float(v) for v in body_rows(out)[0].split(",")]
    assert len(vals) == 3  # flag overrides config n=2


def test_metadata_header_echoes_resolved_config(tmp_path, capsys):
    code, out, _ = run_cli(["zeros", "--family", "hermite", "--n", "2"], capsys)
    meta = json.loads(out.splitlines()[0][2:])
    assert meta["command"] == "zeros"
    assert meta["config"]["n"] == 2
    assert meta["config"]["t"] == 1.0
    assert meta["version"]
    # zeros runs no numpy code, so its output records no numpy version
    assert "numpy" not in meta and "linalg" not in meta
    assert meta["python"] == platform.python_version()
    # simulate echoes the tuple it started from, given or default
    init = tmp_path / "init.csv"
    init.write_text("-0.5,0.25\n")
    out = tmp_path / "sim.csv"
    argv = [
        "simulate", "--kind", "dyson", "--n", "2", "--beta", "2", "--t", "0.01",
        "--dt", "0.001", "--paths", "2", "--seed", "1", "--out", str(out),
    ]
    for extra, initial in (([], [0.0, 0.0]), (["--initial", str(init)], [-0.5, 0.25])):
        assert main(argv + extra) == 0
        meta = json.loads(out.read_text().splitlines()[0][2:])
        assert meta["config"]["initial"] == initial
        assert meta["numpy"] == np.__version__
        assert meta["linalg"] == expected_linalg_build()
        summary = json.loads((tmp_path / "sim.csv.summary.json").read_text())
        assert summary["meta"]["config"]["initial"] == initial
        assert summary["meta"]["linalg"] == meta["linalg"]
    # limit and convolve echo the tuples they read, not the file paths
    code, out, _ = run_cli(
        ["limit", "--kind", "gaussian", "--initial", str(init), "--t", "0.5"], capsys
    )
    assert code == 0
    meta = json.loads(out.splitlines()[0][2:])
    assert meta["config"]["initial"] == [-0.5, 0.25]
    assert meta["numpy"] == np.__version__  # the root seeds
    code, out, _ = run_cli(
        ["convolve", "--a", str(init), "--b", str(init), "--format", "json"], capsys
    )
    assert code == 0
    meta = json.loads(out)["meta"]
    assert meta["config"]["a"] == meta["config"]["b"] == [-0.5, 0.25]
    assert meta["numpy"] == np.__version__ and "linalg" not in meta
    code, out, _ = run_cli(["moments", "--n", "3", "--max", "4"], capsys)
    meta = json.loads(out.splitlines()[0][2:])
    assert code == 0 and "numpy" not in meta and "linalg" not in meta


def expected_linalg_build():
    # numpy 1.26 and later record their build; older ones do not (null)
    deps = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies")
    if deps is None:
        return None
    return {lib: f"{deps[lib]['name']} {deps[lib]['version']}" for lib in ("blas", "lapack")}


def test_monte_carlo_metadata_records_the_linalg_build(tmp_path, monkeypatch, capsys):
    # clt's eigenvalue batches and report moments run in numpy's BLAS/LAPACK,
    # so its output records which build it ran on
    argv = ["clt", "--kind", "gaussian", "--n", "3", "--beta", "1e4", "--samples", "50",
            "--seed", "1"]
    code, out, _ = run_cli(argv, capsys)
    meta = json.loads(out)["meta"]
    assert code == 0
    assert meta["numpy"] == np.__version__
    assert meta["linalg"] == expected_linalg_build()
    # a numpy whose build record names no BLAS/LAPACK records null
    monkeypatch.delattr(np.__config__, "CONFIG")
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and json.loads(out)["meta"]["linalg"] is None


def test_metadata_echoes_every_parsed_parameter(tmp_path, capsys):
    # the echoed keys are the subcommand's flags, so a new flag cannot be
    # left out of the reproducibility record
    init = tmp_path / "init.csv"
    init.write_text("0.5,1.5\n")
    out = tmp_path / "run.out"
    runs = [
        (["zeros", "--family", "hermite", "--n", "2"], set()),
        (["convolve", "--a", str(init), "--b", str(init)], set()),
        (["limit", "--kind", "gaussian", "--initial", str(init), "--t", "0.5"], set()),
        (
            ["limit", "--kind", "gaussian", "--initial", str(init), "--t", "0.5", "--verify-ode"],
            {"route_discrepancy"},
        ),
        (
            ["simulate", "--kind", "dyson", "--n", "2", "--beta", "2", "--t", "0.01",
             "--dt", "0.001", "--paths", "2", "--seed", "1", "--out", str(out)],
            set(),
        ),
        (
            ["clt", "--kind", "gaussian", "--n", "2", "--beta", "100", "--samples", "20",
             "--seed", "1", "--out", str(out)],
            set(),
        ),
        (["moments", "--n", "2", "--max", "4"], set()),
    ]
    parser = cli.build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for argv, extra in runs:
        code, stdout, _ = run_cli(argv, capsys)
        assert code == 0
        text = out.read_text() if "--out" in argv else stdout
        first = text.splitlines()[0]
        meta = json.loads(first[2:]) if first.startswith("# ") else json.loads(text)["meta"]
        dests = {a.dest for a in subcommands.choices[argv[0]]._actions}
        assert set(meta["config"]) == dests - {"help", "out", "config"} | extra, argv[0]


def test_shared_parser_leaks_no_state(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()

    def echoed(out):
        return json.loads(out.splitlines()[0][2:])["config"]

    init = tmp_path / "init.csv"
    init.write_text("-1,1\n")
    limit = ["limit", "--kind", "gaussian", "--initial", str(init), "--t", "0.5"]
    code, out, _ = run_cli(limit + ["--verify-ode"], capsys)
    assert code == 0 and echoed(out)["verify_ode"] is True
    code, out, _ = run_cli(limit, capsys)
    assert code == 0 and echoed(out)["verify_ode"] is False
    assert "route_discrepancy" not in echoed(out)
    # config-file values do not carry over to a later flags-only run
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"family": "hermite", "n": 2, "t": 2.0, "format": "json"}))
    code, out, _ = run_cli(["zeros", "--config", str(cfgfile)], capsys)
    assert code == 0 and json.loads(out)["meta"]["config"]["t"] == 2.0
    code, out, _ = run_cli(["zeros", "--family", "laguerre", "--n", "3", "--alpha", "1.5"], capsys)
    assert code == 0
    assert echoed(out) == {"family": "laguerre", "n": 3, "alpha": 1.5, "t": 1.0, "format": "csv"}
    # usage errors, from argparse and from a missing parameter, then a valid run
    with pytest.raises(SystemExit) as exc:
        main(["limit", "--kind", "dyson"])
    assert exc.value.code == 2
    code, _, err = run_cli(["zeros", "--family", "hermite"], capsys)
    assert code == 2 and "--n" in err
    code, out, _ = run_cli(["zeros", "--family", "hermite", "--n", "2"], capsys)
    assert code == 0
    assert echoed(out) == {"family": "hermite", "n": 2, "alpha": None, "t": 1.0, "format": "csv"}


def test_numerical_failure_exit_3(tmp_path, capsys):
    code, _, err = run_cli(
        [
            "simulate", "--kind", "dyson", "--n", "3", "--beta", "1",
            "--t", "1e16", "--dt", "1e16", "--paths", "1", "--seed", "1",
        ],
        capsys,
    )
    assert code == 3
    assert "numerical failure" in err


def test_sharded_simulate_prints_each_row_once():
    # the forked children must not flush the stdout buffer they inherit: text
    # still buffered when the paths are sharded, and every row, appear once;
    # the plans are (path ranges, whether a drawer draws the noise): the path
    # plan forks two children here, the stage plan one drawer
    argv = ["simulate", "--kind", "dyson", "--n", "2", "--beta", "2", "--t", "0.01",
            "--dt", "0.001", "--paths", "90", "--seed", "3", "--record", "0.005,0.01",
            "--out", "-"]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    for plan, forks in (((3, False), 2), ((1, True), 1)):
        script = (
            "import os, sys\n"
            "from freezing_dyson import cli, stochastic\n"
            f"stochastic._plan = lambda *shape: {plan!r}\n"
            "real_fork = os.fork\n"
            "os.fork = lambda: (sys.stderr.write('fork\\n'), real_fork())[1]\n"
            "sys.stdout.write('buffered before the run\\n')\n"
            f"sys.exit(cli.main({argv!r}))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "fork\n" * forks
        lines = proc.stdout.splitlines()
        assert lines.count("buffered before the run") == 1
        rows = [line for line in lines if line[:1].isdigit()]
        assert len(rows) == len({tuple(row.split(",")[:2]) for row in rows}) == 2 * 90


@pytest.mark.parametrize("mode", ["static", "primitive"])
def test_clt_output_identical_at_one_and_two_blas_threads(mode, tmp_path):
    # every report moment is a BLAS product; at n = 8 and 20000 samples the
    # covariance products are large enough for OpenBLAS to split them over
    # two threads, and each entry must still be summed in the same order
    argv = ["clt", "--kind", "gaussian", "--mode", mode, "--n", "8", "--beta", "1e4",
            "--samples", "20000", "--seed", "3"]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.json"
        script = ("import sys\nfrom freezing_dyson import cli\n"
                  f"sys.exit(cli.main({argv + ['--out', str(out)]!r}))\n")
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_clt_overflowing_chi_degrees_of_freedom_exit_3(capsys):
    # beta * (alpha + n - i) overflows to inf, so the sampled matrices are
    # not finite, and the power-trace kernel of the primitive statistics
    # refuses them with NoConvergence
    code, _, err = run_cli(
        ["clt", "--kind", "laguerre", "--mode", "primitive", "--n", "3", "--beta", "1e300",
         "--samples", "50", "--seed", "7", "--alpha", "1e300"],
        capsys,
    )
    assert code == 3
    assert "numerical failure" in err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["moments", "--n", "1000000000000", "--max", "60"], "'u'"),
        (["clt", "--kind", "gaussian", "--mode", "primitive", "--n", "3", "--beta", "1e-300",
          "--samples", "50", "--seed", "7"], "'variances'"),
        (["limit", "--kind", "gaussian", "--initial", "BIG", "--t", "1"], "c_2 = inf"),
    ],
    ids=["moments-overflow", "clt-nan-variances", "limit-overflowing-esp"],
)
def test_non_finite_output_exit_3_without_warnings(argv, field, tmp_path, capsys):
    # each once exited 0 with inf or NaN in its output, or printed numpy's
    # RuntimeWarning lines ahead of its error
    big = tmp_path / "big.csv"
    big.write_text("1e200,2e200\n")
    argv = [str(big) if a == "BIG" else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("numerical failure:") and field in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_unused_non_finite_flag_exit_2(fmt, capsys):
    # --alpha is not used by the Hermite zeros, but the metadata echoes it
    code, out, err = run_cli(
        ["zeros", "--family", "hermite", "--n", "3", "--alpha", "nan", "--format", fmt], capsys
    )
    assert code == 2 and out == ""
    assert err == "error: --alpha must be finite\n"


def test_nan_sde_state_exit_3(monkeypatch, capsys):
    monkeypatch.setattr(
        stochastic, "_drift_dyson", lambda lam, inv_sign, eps: (np.full_like(lam, np.nan), 0)
    )
    code, _, err = run_cli(
        ["simulate", "--kind", "dyson", "--n", "3", "--beta", "2",
         "--t", "0.01", "--dt", "0.001", "--paths", "2", "--seed", "1"],
        capsys,
    )
    assert code == 3
    assert "numerical failure" in err


SIMULATE_ARGV = [
    "simulate", "--kind", "dyson", "--n", "2", "--beta", "2", "--t", "0.01",
    "--dt", "0.001", "--paths", "2", "--seed", "1",
]


@pytest.mark.parametrize("flag", ["--dt", "--t", "--beta", "--alpha", "--record"])
def test_simulate_non_finite_exit_2(flag, capsys):
    argv = list(SIMULATE_ARGV)
    if flag in argv:
        argv[argv.index(flag) + 1] = "nan"
    else:
        argv += [flag, "inf"]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert "finite" in err


def test_simulate_and_clt_have_no_format(tmp_path, capsys):
    clt_argv = [
        "clt", "--kind", "gaussian", "--n", "2", "--beta", "10000",
        "--samples", "200", "--seed", "3",
    ]
    for argv in (SIMULATE_ARGV, clt_argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--format", "csv"])
        assert exc.value.code == 2
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"format": "json"}))
        code, _, err = run_cli(argv + ["--config", str(cfgfile)], capsys)
        assert code == 2
        assert "unknown config key 'format'" in err
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        assert '"format"' not in out.read_text()  # metadata echoes no format
    capsys.readouterr()


def test_simulate_malformed_record_exit_2(capsys):
    code, _, err = run_cli(SIMULATE_ARGV + ["--record", "0.005,abc"], capsys)
    assert code == 2
    assert "--record" in err and "abc" in err


def test_simulate_record_past_t_end_exit_2(capsys):
    argv = [
        "simulate", "--kind", "dyson", "--n", "2", "--beta", "2", "--t", "1e-9",
        "--dt", "1e-12", "--paths", "2", "--seed", "1", "--record", "1.001e-9",
    ]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert "beyond t_end" in err
    assert out == ""


def test_convolve_malformed_tuple_exit_2(tmp_path, capsys):
    a = tmp_path / "a.csv"
    a.write_text("x,1\n")
    b = tmp_path / "b.csv"
    b.write_text("0,1\n")
    code, _, err = run_cli(["convolve", "--a", str(a), "--b", str(b)], capsys)
    assert code == 2
    assert "a.csv" in err


def test_config_values_converted_by_flag_type(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"family": "hermite", "n": "3", "t": "2"}))
    code, out, _ = run_cli(["zeros", "--config", str(cfgfile)], capsys)
    assert code == 0
    assert len(body_rows(out)[0].split(",")) == 3
    assert json.loads(out.splitlines()[0][2:])["config"]["n"] == 3
    bad = [
        ("zeros", {"family": "hermite", "n": "three"}),
        ("zeros", {"family": "hermite", "n": 2.5}),
        ("zeros", {"family": "hermite", "n": True}),
        ("zeros", {"family": "jacobi", "n": 2}),
        ("limit", {"kind": "gaussian", "t": 1.0, "verify_ode": "yes"}),
    ]
    for command, values in bad:
        cfgfile.write_text(json.dumps(values))
        code, _, err = run_cli([command, "--config", str(cfgfile)], capsys)
        assert code == 2, values
        assert "config key" in err


@pytest.mark.parametrize(
    "extra",
    [["--dt", "0.3", "--t", "1"], ["--record", "0.0005,0.01"], ["--dt", "1e16", "--t", "0.1"]],
    ids=["t", "record", "below-one-step"],
)
def test_simulate_off_grid_time_exit_2(extra, capsys):
    argv = list(SIMULATE_ARGV)
    for flag, value in zip(extra[::2], extra[1::2]):
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert "grid" in err
    assert out == ""


# The fuzz test starts from a valid run of each subcommand and replaces up to
# three flags with values from small pools: valid, boundary, zero, negative,
# nan, inf, non-numeric and missing (None).  Sizes stay small (n <= 12, at
# most 50 paths or samples, at most 10 SDE steps) so each run takes
# milliseconds.
COUNTS = ["3", "1", "12", "0", "-2", "nan", "x", None]
SIZES = ["2", "50", "1", "0", "-1", "inf", "x", None]
REALS = ["1.5", "1e-300", "1e300", "0", "-1", "nan", "inf", "x", None]
SEEDS = ["7", "0", "-1", "1e3", "x", None]
FUZZ_FILES = {
    "pair.csv": "-1,1\n",
    "triple.csv": "0.5,1,2\n",
    "zeros.csv": "0,0,0\n",
    "nan.csv": "nan,1,2\n",
    "word.csv": "x,1\n",
    "empty.csv": "",
}
TUPLES = sorted(FUZZ_FILES) + ["missing.csv", None]
FUZZ_RUNS = {  # subcommand: {flag: (valid value, pool)}
    "zeros": {
        "--family": ("laguerre", ["hermite", "jacobi", None]), "--n": ("3", COUNTS),
        "--alpha": ("1.5", REALS), "--t": ("1.5", REALS),
        "--format": ("json", ["csv", "xml", None]),
    },
    "convolve": {
        "--a": ("pair.csv", TUPLES), "--b": ("pair.csv", TUPLES), "--format": ("json", [None]),
    },
    "limit": {
        "--kind": ("laguerre", ["gaussian", "dyson", None]), "--initial": ("triple.csv", TUPLES),
        "--t": ("1.5", REALS), "--alpha": ("3.5", REALS),
        "--verify-ode": (True, [False]),
    },
    "moments": {"--n": ("3", COUNTS), "--max": ("4", ["60", "61", "0", "-1", "x", None])},
    "simulate": {
        "--kind": ("laguerre", ["dyson", None]), "--n": ("3", ["2", "12", "0", "-1", "x", None]),
        "--beta": ("2", ["1", "0.5", "1e300", "0", "-1", "nan", "inf", "x", None]),
        "--t": ("0.1", ["0.05", "0", "-0.1", "nan", "inf", "x", None]),
        "--dt": ("0.01", ["0.1", "0.03", "0", "-0.01", "nan", "inf", "x", None]),
        "--paths": ("3", SIZES), "--seed": ("7", SEEDS), "--alpha": ("1.5", REALS),
        "--record": ("0,0.05", ["0.1,0.05", "-1", "nan", "", "x", None]),
        "--initial": ("triple.csv", TUPLES),
    },
    "clt": {
        "--kind": ("laguerre", ["gaussian", None]),
        "--mode": ("primitive", ["static", "dynamic", None]),
        "--n": ("3", COUNTS), "--beta": ("1e4", ["2"] + REALS[2:]), "--samples": ("50", SIZES),
        "--seed": ("7", SEEDS), "--alpha": ("1.5", REALS),
    },
}


def _fuzz_argv(draw, files):
    command = draw(st.sampled_from(sorted(FUZZ_RUNS)))
    flags = FUZZ_RUNS[command]
    values = {flag: valid for flag, (valid, _) in flags.items()}
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3, unique=True)):
        values[flag] = draw(st.sampled_from(flags[flag][1]))
    argv = [command]
    for flag, value in values.items():
        if value is True:
            argv.append(flag)
        elif isinstance(value, str):
            argv += [flag, str(files / value) if value.endswith(".csv") else value]
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    files = tmp_path_factory.mktemp("fuzz")
    for name, text in FUZZ_FILES.items():
        (files / name).write_text(text)
    return files


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_cli_fuzz_exit_codes(fuzz_files, data):
    argv = data.draw(st.composite(_fuzz_argv)(fuzz_files), label="argv")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flag text
            code = exc.code
    assert code in (0, 2, 3), (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
    if code == 0:  # a successful run writes finite numbers only
        assert not re.search(r"(?i)\b(nan|inf|infinity)\b", stdout.getvalue()), argv

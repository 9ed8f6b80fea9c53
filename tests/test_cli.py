import json
import math

import numpy as np
import pytest

from freezing_dyson.cli import main, read_root_tuple


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


def test_limit_laguerre_closed_form_rejection(tmp_path, capsys):
    init = tmp_path / "init.csv"
    init.write_text("0,0\n")
    # alpha <= N - 1/2 with --closed-form: exit 2 with explanation
    code, _, err = run_cli(
        [
            "limit", "--kind", "laguerre", "--initial", str(init),
            "--t", "1", "--alpha", "1.5", "--closed-form",
        ],
        capsys,
    )
    assert code == 2
    assert "alpha" in err
    # without the flag: ODE route result
    code, out, _ = run_cli(
        ["limit", "--kind", "laguerre", "--initial", str(init), "--t", "1", "--alpha", "1.5"],
        capsys,
    )
    assert code == 0
    vals = [float(v) for v in body_rows(out)[0].split(",")]
    from freezing_dyson.finfree import laguerre_roots

    assert np.allclose(vals, laguerre_roots(2, 1.5, 1.0).roots, atol=1e-9)


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


def test_config_file_with_flag_override(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"family": "hermite", "n": 2, "t": 1.0}))
    code, out, _ = run_cli(["zeros", "--config", str(cfgfile), "--n", "3"], capsys)
    assert code == 0
    vals = [float(v) for v in body_rows(out)[0].split(",")]
    assert len(vals) == 3  # flag overrides config n=2


def test_metadata_header_echoes_resolved_config(capsys):
    code, out, _ = run_cli(["zeros", "--family", "hermite", "--n", "2"], capsys)
    meta = json.loads(out.splitlines()[0][2:])
    assert meta["command"] == "zeros"
    assert meta["config"]["n"] == 2
    assert meta["config"]["t"] == 1.0
    assert meta["version"]


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


def test_nan_sde_state_exit_3(monkeypatch, capsys):
    from freezing_dyson import stochastic

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
    "extra", [["--dt", "0.3", "--t", "1"], ["--record", "0.0005,0.01"]], ids=["t", "record"]
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

"""Command-line interface for reproducible runs.

Subcommands: zeros, convolve, limit, simulate, clt, moments.  Parameters come
from flags and/or a JSON config file (flags win); every output begins with a
metadata block echoing the fully resolved configuration, the seed and the
library and Python versions, so re-running with the same metadata reproduces
the file bit-exactly.  The subcommands that run numpy code (convolve and
limit for their root seeds, simulate and clt throughout) also record numpy's
version, and simulate and clt the BLAS/LAPACK build.  Exit codes: 0 success,
2 usage or parameter error (a request too large to allocate among them),
3 numerical failure.  simulate's particle rows are formatted by
``_particle_rows`` in the processes that simulated their paths (see
``stochastic``), and joined here slot by slot.  Only simulate and clt
import the Monte Carlo modules (stochastic, stats), and only convolve, limit,
simulate and clt load numpy, once their usage is checked, running its work
with its floating-point warnings off, so that overflow and NaN surface as the
checks' own errors: ``--help``, usage errors found before that, zeros and
moments load no numpy.
"""

import argparse
import functools
import json
import math
import sys

from . import __version__
from .dynamics import (
    gaussian_closed_polynomial,
    gaussian_gk,
    laguerre_closed_polynomial,
    laguerre_gk,
    moment_sequence,
)
from .elemsym import RootTuple, roots_of_monic
from .errors import (
    DimensionMismatch,
    InvalidParameter,
    NoConvergence,
    NonFiniteOutput,
    NotRealRooted,
    StepUnstable,
    is_numpy,
    np,
)
from .finfree import boxplus, hermite_roots, laguerre_roots

USAGE_ERROR = 2
NUMERICAL_ERROR = 3


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _meta(command: str, config: dict) -> dict:
    meta = {
        "command": command,
        "config": config,
        "version": __version__,
        "python": sys.version.split()[0],
    }
    if command not in ("zeros", "moments"):
        meta["numpy"] = np.__version__
    if command in ("simulate", "simulate-summary", "clt"):
        meta["linalg"] = _linalg_build()
    return meta


def _linalg_build():
    """The BLAS and LAPACK that numpy was built with, as ``{"blas": "name
    version", "lapack": ...}``, or None where numpy's build record names no
    such dependencies."""
    deps = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
    try:
        return {lib: f"{deps[lib]['name']} {deps[lib]['version']}" for lib in ("blas", "lapack")}
    except (KeyError, TypeError):
        return None


def _meta_line(command: str, config: dict) -> str:
    return f"# {json.dumps(_meta(command, config), sort_keys=True)}"


def _check_finite(value, name=None) -> None:
    """Raise :class:`NonFiniteOutput` naming the first field of ``value``, a
    dict of numbers, arrays, lists and dicts, that holds a NaN or an infinity."""
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, key)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _check_finite(item, name)
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise NonFiniteOutput(f"output field {name!r} is not finite")
    elif is_numpy(value, "floating", "ndarray"):
        if not np.isfinite(value).all():
            raise NonFiniteOutput(f"output field {name!r} is not finite")


def _json_output(command: str, config: dict, payload: dict) -> str:
    doc = {"meta": _meta(command, config)}
    doc.update(payload)
    _check_finite(doc)
    return json.dumps(doc, sort_keys=True, indent=2, default=_json_default) + "\n"


def _json_default(obj):
    if is_numpy(obj, "ndarray"):
        return obj.tolist()
    if is_numpy(obj, "floating", "integer", "bool_"):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _emit_row(args, command: str, config: dict, key: str, values):
    """Write one row of numbers, as a CSV line or under ``key`` in JSON."""
    if args.format == "json":
        text = _json_output(command, config, {key: list(values)})
    else:
        _check_finite({**config, key: values})
        text = _meta_line(command, config) + "\n" + ",".join(_fmt(v) for v in values) + "\n"
    _write_text(args.out, text)


def _floats(tokens, source: str) -> list:
    """Parse number tokens; a malformed one is a usage error."""
    try:
        return [float(tok) for tok in tokens]
    except ValueError as exc:
        raise InvalidParameter(f"{source}: {exc}") from None


def read_root_tuple(path: str) -> RootTuple:
    """Read a one-row CSV root tuple; unsorted input is re-sorted with a warning."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            values = _floats((tok for tok in line.split(",") if tok.strip()), path)
            if not values:
                continue
            if any(b < a for a, b in zip(values, values[1:])):
                print(f"warning: re-sorting unsorted tuple from {path}", file=sys.stderr)
                values = sorted(values)
            return RootTuple(tuple(values))
    raise InvalidParameter(f"no tuple row found in {path}")


def _echoed(args) -> dict:
    """The parsed parameters, as the metadata block echoes them."""
    return {k: v for k, v in vars(args).items() if k not in ("out", "config", "func", "command")}


def _require(args, names):
    for name in names:
        if getattr(args, name) is None:
            raise InvalidParameter(f"missing required parameter --{name.replace('_', '-')}")


def cmd_zeros(args) -> int:
    _require(args, ["family", "n"])
    t = 1.0 if args.t is None else args.t
    if args.family == "hermite":
        roots = hermite_roots(args.n, t)
    else:
        _require(args, ["alpha"])
        roots = laguerre_roots(args.n, args.alpha, t)
    config = _echoed(args)
    config["t"] = t
    _emit_row(args, "zeros", config, "roots", roots.roots)
    return 0


def cmd_convolve(args) -> int:
    _require(args, ["a", "b"])
    ta, tb = read_root_tuple(args.a), read_root_tuple(args.b)
    if ta.n != tb.n:
        raise DimensionMismatch("dimension mismatch")
    with np.errstate(all="ignore"):  # the root seeds
        roots = boxplus(ta, tb)
    config = _echoed(args)
    config["a"], config["b"] = list(ta.roots), list(tb.roots)
    _emit_row(args, "convolve", config, "roots", roots.roots)
    return 0


def cmd_limit(args) -> int:
    _require(args, ["kind", "initial", "t"])
    initial = read_root_tuple(args.initial)
    config = _echoed(args)
    config["initial"] = list(initial.roots)
    # the polynomial-ODE route, which holds for every alpha
    if args.kind == "gaussian":
        traj = gaussian_gk(initial)
    else:
        _require(args, ["alpha"])
        traj = laguerre_gk(initial, args.alpha)
    if args.verify_ode:
        # the closed form, built before the solve: out of its domain (a
        # Laguerre alpha <= N - 1/2) it is a usage error
        if args.kind == "gaussian":
            closed = gaussian_closed_polynomial(initial, args.t)
        else:
            closed = laguerre_closed_polynomial(initial, args.alpha, args.t)
    ode = traj.polynomial_at(args.t)
    with np.errstate(all="ignore"):  # the root seeds
        result = roots_of_monic(ode)
        if args.verify_ode:
            # equal exact polynomials have equal roots; unequal ones are
            # solved apart and their roots compared
            other = result if closed == ode else roots_of_monic(closed)
            discrepancy = max(abs(a - b) for a, b in zip(other.roots, result.roots))
            print(f"max route discrepancy: {_fmt(discrepancy)}", file=sys.stderr)
            config["route_discrepancy"] = discrepancy
    _emit_row(args, "limit", config, "roots", result.roots)
    return 0


def _particle_rows(cfg, data, lo: int) -> list:
    """The particle CSV rows of paths lo, lo + 1, ... whose recorded tuples
    are ``data``, (paths, record slots, n): one string per record slot, its
    rows joined by newlines.  The %-template formats each value as _fmt
    does, the slot's time once.  The simulators call it in the process that
    simulated the paths."""
    values = ",%d" + ",%.17g" * cfg.n
    parts = []
    for slot, t in enumerate(cfg.record_times):
        row = "%.17g" % t + values  # a formatted float holds no %
        parts.append("\n".join(row % (p, *x) for p, x in enumerate(data[:, slot].tolist(), lo)))
    return parts


def cmd_simulate(args) -> int:
    _require(args, ["kind", "n", "beta", "t", "dt", "paths", "seed"])
    if args.kind == "laguerre":
        _require(args, ["alpha"])
    record = tuple(_floats(args.record.split(","), "--record")) if args.record else (args.t,)
    initial = (
        read_root_tuple(args.initial)
        if args.initial
        else RootTuple((0.0,) * args.n)
    )
    from .stats import ek_drift_report
    from .stochastic import SimConfig, simulate_dyson, simulate_laguerre

    cfg = SimConfig(
        beta=args.beta,
        n=args.n,
        t_end=args.t,
        dt=args.dt,
        initial=initial,
        seed=args.seed,
        paths=args.paths,
        record_times=record,
        alpha=args.alpha,
    )
    with np.errstate(all="ignore"):
        simulate = simulate_dyson if args.kind == "dyson" else simulate_laguerre
        ens = simulate(cfg, rows=_particle_rows)
        # JSON summary: e_k means against the exact g_k(t)
        rep = ek_drift_report(ens)
        summary = {
            "record_times": list(rep.times),
            "ek_mean": rep.ek_mean,
            "ek_stderr": rep.ek_stderr,
            "gk_target": rep.gk_target,
            "tolerance": rep.tolerance,
            "passed": rep.passed,
            "all_passed": rep.all_passed(),
            "clamp_events": ens.clamp_events,
        }
    config = _echoed(args)
    config["record"] = list(cfg.record_times)
    config["initial"] = list(initial.roots)
    # particle CSV: one recorded tuple per row, keyed by time and path, each
    # record slot's rows joined from the parts its path ranges formatted
    lines = [_meta_line("simulate", config)]
    lines.append("# columns: time,path," + ",".join(f"x{i+1}" for i in range(cfg.n)))
    for parts in zip(*ens.rows):
        lines.extend(parts)
    text = _json_output("simulate-summary", config, summary)
    _write_text(args.out, "\n".join(lines) + "\n")  # once the summary is checked
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
    else:
        _write_text(args.out + ".summary.json", text)
    return 0


def cmd_clt(args) -> int:
    _require(args, ["kind", "n", "beta", "samples", "seed"])
    if args.kind == "laguerre":
        _require(args, ["alpha"])
    from .stats import clt_covariance_gaussian, clt_covariance_laguerre, primitive_clt_check

    mode = args.mode or "static"
    config = _echoed(args)
    config["mode"] = mode
    with np.errstate(all="ignore"):
        if mode == "static":
            if args.kind == "gaussian":
                rep = clt_covariance_gaussian(args.beta, args.n, args.samples, args.seed)
            else:
                rep = clt_covariance_laguerre(
                    args.beta, args.n, args.alpha, args.samples, args.seed
                )
            payload = {
                "sigma_hat": rep.sigma_hat,
                "rotated": rep.rotated,
                "target_diag": rep.target_diag,
                "off_diag_max": rep.off_diag_max,
                "diag_rel_err": rep.diag_rel_err,
                "mc_stderr": rep.mc_stderr,
                "samples": rep.samples,
                "diag_pass": rep.diag_pass(),
                "offdiag_pass": rep.offdiag_pass(),
            }
        else:
            rep = primitive_clt_check(
                args.beta, args.n, args.samples, args.seed, args.kind, alpha=args.alpha
            )
            payload = {
                "variances": rep.variances,
                "targets": rep.targets,
                "var_stderr": rep.var_stderr,
                "correlations": rep.correlations,
                "samples": rep.samples,
                "variance_pass": rep.variance_pass(),
                "independence_pass": rep.independence_pass(),
            }
    _write_text(args.out, _json_output("clt", config, payload))
    return 0


def cmd_moments(args) -> int:
    _require(args, ["n", "max"])
    ms = moment_sequence(args.n, args.max)
    config = _echoed(args)
    _emit_row(args, "moments", config, "u", ms.u)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once and shared by every caller in the
    process.  ``parse_args`` returns a fresh ``Namespace`` on each call, and
    nothing mutates the parser after it is built."""
    parser = argparse.ArgumentParser(
        prog="freezing-dyson",
        description="Finite free convolution and freezing-limit toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=True):
        p.add_argument("--out", default=None, help="output path ('-' for stdout)")
        if formats:
            p.add_argument("--format", choices=["csv", "json"], default=None)
        p.add_argument("--config", default=None, help="JSON config file; flags override")

    p = sub.add_parser("zeros", help="classical polynomial zeros")
    p.add_argument("--family", choices=["hermite", "laguerre"], default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--t", type=float, default=None)
    common(p)
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("convolve", help="finite free convolution of two tuple files")
    p.add_argument("--a", default=None, help="CSV file with the first tuple")
    p.add_argument("--b", default=None, help="CSV file with the second tuple")
    common(p)
    p.set_defaults(func=cmd_convolve)

    p = sub.add_parser("limit", help="deterministic freezing limit at time t")
    p.add_argument("--kind", choices=["gaussian", "laguerre"], default=None)
    p.add_argument("--initial", default=None, help="CSV file with the initial tuple")
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument(
        "--verify-ode", dest="verify_ode", action="store_true",
        help="also build the closed form and compare its exact coefficients with the "
        "polynomial-ODE route's; the root gap is reported as route_discrepancy "
        "(0 when the coefficients are equal)",
    )
    common(p)
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("simulate", help="Monte Carlo SDE simulation")
    p.add_argument("--kind", choices=["dyson", "laguerre"], default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--paths", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--record", default=None, help="comma-separated record times")
    p.add_argument("--initial", default=None, help="CSV file; default all zeros")
    common(p, formats=False)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("clt", help="fluctuation covariance reports")
    p.add_argument("--kind", choices=["gaussian", "laguerre"], default=None)
    p.add_argument("--mode", choices=["static", "primitive"], default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    common(p, formats=False)
    p.set_defaults(func=cmd_clt)

    p = sub.add_parser("moments", help="scale-free moment recursion")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--max", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_moments)
    return parser


def _config_value(action: argparse.Action, key: str, value):
    """Convert a config-file value as argparse converts its flag's text."""
    if value is None:
        return None
    if action.nargs == 0:  # store_true flags
        if not isinstance(value, bool):
            raise InvalidParameter(f"config key {key!r} must be true or false")
        return value
    try:
        value = (action.type or str)(str(value))
    except ValueError:
        raise InvalidParameter(f"config key {key!r}: invalid value {value!r}") from None
    if action.choices is not None and value not in action.choices:
        raise InvalidParameter(f"config key {key!r}: {value!r} is not one of {list(action.choices)}")
    return value


def _apply_config_file(args, parser: argparse.ArgumentParser):
    if getattr(args, "config", None) is None:
        return
    with open(args.config, encoding="utf-8") as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise InvalidParameter("config file must hold a JSON object")
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in subcommands.choices[args.command]._actions}
    for key, value in values.items():
        attr = key.replace("-", "_")
        if attr not in actions or not hasattr(args, attr):
            raise InvalidParameter(f"unknown config key {key!r}")
        value = _config_value(actions[attr], key, value)
        if getattr(args, attr) is None or getattr(args, attr) is False:
            setattr(args, attr, value)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args, parser)
        if getattr(args, "format", "csv") is None:
            args.format = "csv"
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidParameter(f"--{name.replace('_', '-')} must be finite")
        return args.func(args)
    except (InvalidParameter, DimensionMismatch, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError as exc:  # a size no memory holds, refused before it is used
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: not enough memory for this request{detail}", file=sys.stderr)
        return USAGE_ERROR
    except (NotRealRooted, StepUnstable, NoConvergence, NonFiniteOutput) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())

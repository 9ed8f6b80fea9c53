"""Seeded job streams of the three benchmark workloads, and the checks on
their outputs.

A workload is a list of rounds, and a round is a fixed mix of
``freezing_dyson.cli.main`` jobs.  Every parameter that sets a job's cost
(command, kind, n, t, path and sample counts) follows the same design in
every round, or cycles through a full grid across rounds, so runs with
different seeds do the same amount of work.  The seed picks initial tuples,
alpha values, convolution scales and Monte Carlo seeds.  All input files are
written when the rounds are built, before anything is timed.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from freezing_dyson.orthopoly import hermite_jacobi, laguerre_jacobi

WORKLOADS = ("exact-limits", "sde-ensembles", "static-clt")

LIMIT_TIMES = (0.1, 1.0, 4.0)
# Every (kind, n, t) limit combination once per exact-limits round: 42 of the
# round's 50 jobs, next to 5 convolve and 3 zeros jobs (84% / 10% / 6%).
LIMIT_GRID = [
    (kind, n, t) for kind in ("gaussian", "laguerre") for n in range(2, 9) for t in LIMIT_TIMES
]
CONVOLVE_PER_ROUND = 5
CONVOLVE_N = tuple(range(2, 13))
CONVOLVE_SCALES = (0.25, 1.0, 4.0)
# One zeros job per third of n = 8..24 in each round: the cost grows like n^2,
# so a free draw of n would make rounds differ in cost by seed.
ZEROS_N_THIRDS = ((8, 13), (14, 19), (20, 24))

ROUTE_GAP_LIMIT = 1e-8
CONVOLVE_LIMIT = 1e-9
ZEROS_REL_LIMIT = 1e-12

CRIT7_RECORD = (0.2, 0.4, 0.6, 0.8, 1.0)


@dataclass(frozen=True)
class SdeConfig:
    name: str
    kind: str
    n: int
    beta: float
    dt: float
    paths: int
    record: tuple = (1.0,)
    initial: tuple | None = None  # None: all-zero start
    alpha: float | None = None
    lln_radius: float | None = None  # freezing LLN check radius at t = 1


# The acceptance-criterion configs (t = 1 throughout), with path counts cut so
# one round takes a few seconds.  crit-8 uses 200 paths: one block at the
# 64 MB noise budget for 10^4 steps of n = 4.
SDE_CONFIGS = (
    SdeConfig("crit7-dyson", "dyson", 4, 4.0, 1e-3, 1000, CRIT7_RECORD, (-1.2, -0.4, 0.3, 1.1)),
    SdeConfig(
        "crit7-laguerre", "laguerre", 4, 4.0, 1e-3, 1000, CRIT7_RECORD, (0.2, 0.7, 1.4, 2.3), 1.5
    ),
    SdeConfig("crit8-dyson", "dyson", 4, 1e6, 1e-4, 200, lln_radius=0.02),
    SdeConfig("crit8-laguerre", "laguerre", 4, 1e6, 1e-4, 200, alpha=1.0, lln_radius=0.05),
    SdeConfig("crit11-dyson", "dyson", 4, 1e4, 1e-3, 1000, (0.5, 1.0)),
    SdeConfig("n16-dyson", "dyson", 16, 4.0, 1e-3, 100),
    SdeConfig("n16-laguerre", "laguerre", 16, 4.0, 1e-3, 100, alpha=1.0),
)


@dataclass(frozen=True)
class CltConfig:
    name: str
    kind: str
    mode: str
    n: int
    samples: int
    alpha: float | None = None


CLT_BETA = 1e4
# Criteria 9 and 10 configs plus wider static batches (M = 5k..50k lanes).
CLT_CONFIGS = (
    CltConfig("static-gaussian-3", "gaussian", "static", 3, 50000),
    CltConfig("static-gaussian-8", "gaussian", "static", 8, 15000),
    CltConfig("static-gaussian-16", "gaussian", "static", 16, 5000),
    CltConfig("static-laguerre-3", "laguerre", "static", 3, 50000, 1.0),
    CltConfig("static-laguerre-8", "laguerre", "static", 8, 15000, 1.0),
    CltConfig("primitive-gaussian-4", "gaussian", "primitive", 4, 40000),
    CltConfig("primitive-laguerre-4", "laguerre", "primitive", 4, 40000, 2.5),
)

TINY_DIVISOR = 50  # path and sample counts are divided by this in tiny mode


@dataclass
class Job:
    """One ``cli.main`` call: ``spec`` describes it without file paths."""

    index: int
    spec: dict
    argv: list
    out: str


@dataclass
class Outcome:
    """What the checks made of one job's exit code and output files."""

    ok: bool
    reason: str = ""
    digest: str | None = None
    keys: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    work: int = 0
    output_bytes: int = 0


def _num(x: float) -> str:
    return repr(float(x))


def _write_tuple(path: str, values) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(_num(v) for v in values) + "\n")


def _cycle(rng: np.random.Generator, items):
    """Endless stream of ``items``: full passes, each in a fresh random order."""
    while True:
        for i in rng.permutation(len(items)):
            yield items[i]


def hermite_zeros(n: int) -> np.ndarray:
    """Degree-n probabilist Hermite zeros by LAPACK, exactly symmetrized."""
    z = np.linalg.eigvalsh(hermite_jacobi(n).dense())
    return 0.5 * (z - z[::-1])


def build(workload: str, seed: int, work_dir: str, rounds: int, tiny: bool = False) -> list:
    """``rounds`` rounds of jobs for ``workload``; input and output files live
    under ``work_dir``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(work_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    make_round = {
        "exact-limits": _exact_round,
        "sde-ensembles": _sde_round,
        "static-clt": _clt_round,
    }[workload]
    state = {}
    out = []
    for r in range(rounds):
        specs = make_round(rng, state, tiny)
        order = rng.permutation(len(specs))
        out.append([_job(len(specs) * r + k, specs[i], work_dir) for k, i in enumerate(order)])
    return out


def _exact_round(rng, state, tiny):
    if not state:
        state["convolve"] = _cycle(rng, CONVOLVE_N)
    specs = []
    for kind, n, t in LIMIT_GRID:
        if kind == "gaussian":
            initial = np.sort(rng.uniform(-4.0, 4.0, n))
            alpha = None
        else:
            initial = np.sort(rng.uniform(0.0, 4.0, n))
            alpha = n - 0.5 + float(rng.uniform(0.1, 3.0))
        specs.append(
            {"command": "limit", "kind": kind, "n": n, "t": t, "alpha": alpha,
             "initial": [float(v) for v in initial]}
        )
    for _ in range(CONVOLVE_PER_ROUND):
        n = next(state["convolve"])
        t, s = (float(v) for v in rng.choice(CONVOLVE_SCALES, 2))
        specs.append({"command": "convolve", "n": n, "t": t, "s": s})
    for lo, hi in ZEROS_N_THIRDS:
        family = str(rng.choice(("hermite", "laguerre")))
        n = int(rng.integers(lo, hi + 1))
        alpha = float(rng.uniform(0.5, 3.0)) if family == "laguerre" else None
        specs.append({"command": "zeros", "family": family, "n": n, "alpha": alpha})
    return specs


def _sde_round(rng, state, tiny):
    return [
        {"command": "simulate", "config": cfg.name, "seed": int(rng.integers(1, 2**31 - 1)),
         "paths": max(10, cfg.paths // TINY_DIVISOR) if tiny else cfg.paths}
        for cfg in SDE_CONFIGS
    ]


def _clt_round(rng, state, tiny):
    return [
        {"command": "clt", "config": cfg.name, "seed": int(rng.integers(1, 2**31 - 1)),
         "samples": max(200, cfg.samples // TINY_DIVISOR) if tiny else cfg.samples}
        for cfg in CLT_CONFIGS
    ]


def _job(index: int, spec: dict, work_dir: str) -> Job:
    stem = os.path.join(work_dir, f"{index:05d}")
    out = stem + ".out"
    command = spec["command"]
    if command == "limit":
        initial = stem + "_init.csv"
        _write_tuple(initial, spec["initial"])
        argv = ["limit", "--kind", spec["kind"], "--initial", initial,
                "--t", _num(spec["t"]), "--verify-ode"]
        if spec["alpha"] is not None:
            argv += ["--alpha", _num(spec["alpha"])]
    elif command == "convolve":
        z = hermite_zeros(spec["n"])
        a, b = stem + "_a.csv", stem + "_b.csv"
        _write_tuple(a, spec["t"] * z)
        _write_tuple(b, spec["s"] * z)
        argv = ["convolve", "--a", a, "--b", b]
    elif command == "zeros":
        argv = ["zeros", "--family", spec["family"], "--n", str(spec["n"])]
        if spec["alpha"] is not None:
            argv += ["--alpha", _num(spec["alpha"])]
    elif command == "simulate":
        cfg = sde_config(spec["config"])
        argv = ["simulate", "--kind", cfg.kind, "--n", str(cfg.n), "--beta", _num(cfg.beta),
                "--t", "1", "--dt", _num(cfg.dt), "--paths", str(spec["paths"]),
                "--seed", str(spec["seed"]), "--record", ",".join(_num(t) for t in cfg.record)]
        if cfg.alpha is not None:
            argv += ["--alpha", _num(cfg.alpha)]
        if cfg.initial is not None:
            initial = stem + "_init.csv"
            _write_tuple(initial, cfg.initial)
            argv += ["--initial", initial]
    else:
        cfg = clt_config(spec["config"])
        argv = ["clt", "--kind", cfg.kind, "--mode", cfg.mode, "--n", str(cfg.n),
                "--beta", _num(CLT_BETA), "--samples", str(spec["samples"]),
                "--seed", str(spec["seed"])]
        if cfg.alpha is not None:
            argv += ["--alpha", _num(cfg.alpha)]
    return Job(index, spec, argv + ["--out", out], out)


def sde_config(name: str) -> SdeConfig:
    return next(cfg for cfg in SDE_CONFIGS if cfg.name == name)


def clt_config(name: str) -> CltConfig:
    return next(cfg for cfg in CLT_CONFIGS if cfg.name == name)


def output_files(job: Job) -> list:
    if job.spec["command"] == "simulate":
        return [job.out, job.out + ".summary.json"]
    return [job.out]


# --------------------------------------------------------------------- checks


def check(job: Job, code, error: str) -> Outcome:
    """Decide whether the job succeeded and its output is correct.

    ``code`` is the exit code of ``cli.main`` (None when it raised) and
    ``error`` what it wrote to stderr or raised.  Monte Carlo pass/fail
    verdicts are recorded in ``Outcome.verdicts`` and never fail a job.
    """
    if code != 0:
        last = error.strip().splitlines()[-1] if error.strip() else ""
        return Outcome(False, f"exit code {code}: {last}")
    try:
        size = sum(os.path.getsize(p) for p in output_files(job))
        outcome = _CHECKS[job.spec["command"]](job)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return Outcome(False, f"unreadable output: {exc!r}")
    outcome.output_bytes = size
    return outcome


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def _read_tuple_output(path: str):
    """(metadata, values, digest of the numeric rows) of a one-row tuple CSV."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    meta = json.loads(lines[0][1:]) if lines and lines[0].startswith("#") else {}
    body = [line for line in lines if not line.startswith("#")]
    values = np.array([float(v) for v in body[0].split(",")])
    return meta, values, _digest("\n".join(body))


def _tuple_problem(values: np.ndarray, n: int) -> str:
    if len(values) != n:
        return f"{len(values)} roots, expected {n}"
    if not np.all(np.isfinite(values)):
        return "non-finite root"
    if np.any(np.diff(values) < 0.0):
        return "roots not sorted"
    return ""


def _tuple_outcome(values, digest, problem) -> Outcome:
    return Outcome(not problem, problem, digest, [float(v) for v in values], work=len(values))


def _check_limit(job: Job) -> Outcome:
    meta, values, digest = _read_tuple_output(job.out)
    problem = _tuple_problem(values, job.spec["n"])
    gap = meta.get("config", {}).get("route_discrepancy")
    if not problem and not (gap is not None and gap < ROUTE_GAP_LIMIT):
        problem = f"route discrepancy {gap!r} not below {ROUTE_GAP_LIMIT:g}"
    outcome = _tuple_outcome(values, digest, problem)
    outcome.verdicts["route_discrepancy"] = gap
    return outcome


def _check_convolve(job: Job) -> Outcome:
    _, values, digest = _read_tuple_output(job.out)
    spec = job.spec
    problem = _tuple_problem(values, spec["n"])
    if not problem:
        expect = math.hypot(spec["t"], spec["s"]) * hermite_zeros(spec["n"])
        err = float(np.max(np.abs(values - expect)))
        if not err < CONVOLVE_LIMIT:
            problem = f"differs from Hermite zeros at t^2+s^2 by {err:.3g}"
    return _tuple_outcome(values, digest, problem)


def _check_zeros(job: Job) -> Outcome:
    _, values, digest = _read_tuple_output(job.out)
    spec = job.spec
    problem = _tuple_problem(values, spec["n"])
    if not problem:
        if spec["family"] == "hermite":
            jac = hermite_jacobi(spec["n"])
        else:
            jac = laguerre_jacobi(spec["n"], spec["alpha"])
        ref = np.linalg.eigvalsh(jac.dense())
        err = float(np.max(np.abs(values - ref)))
        if err > ZEROS_REL_LIMIT * float(np.max(np.abs(ref))):
            problem = f"differs from eigvalsh by {err:.3g}"
    return _tuple_outcome(values, digest, problem)


def _summary_body(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.pop("meta", None)
    return doc


def _check_simulate(job: Job) -> Outcome:
    cfg = sde_config(job.spec["config"])
    paths = job.spec["paths"]
    with open(job.out, encoding="utf-8") as fh:
        body = [line for line in fh.read().splitlines() if not line.startswith("#")]
    summary = _summary_body(job.out + ".summary.json")
    digest = _digest("\n".join(body), json.dumps(summary, sort_keys=True))
    ek_mean = np.asarray(summary["ek_mean"], dtype=float)
    outcome = Outcome(True, "", digest, [float(v) for v in ek_mean.ravel()])
    outcome.work = paths * int(round(1.0 / cfg.dt))
    outcome.verdicts = {"all_passed": summary["all_passed"],
                        "clamp_events": summary["clamp_events"]}

    problem = ""
    rows = np.array([[float(v) for v in line.split(",")] for line in body])
    expect_rows = paths * len(cfg.record)
    if rows.shape != (expect_rows, cfg.n + 2):
        problem = f"particle CSV shape {rows.shape}, expected {(expect_rows, cfg.n + 2)}"
    elif not np.all(np.isfinite(rows)):
        problem = "non-finite particle value"
    else:
        x = rows[:, 2:]
        if np.any(np.diff(x, axis=1) < 0.0):
            problem = "unsorted particle tuple"
        elif cfg.kind == "laguerre" and np.any(x < 0.0):
            problem = "negative Laguerre coordinate"
        elif not np.array_equal(rows[:, 0], np.repeat(cfg.record, paths)):
            problem = "record times out of order"
        elif ek_mean.shape != (len(cfg.record), cfg.n + 1) or not np.all(np.isfinite(ek_mean)):
            problem = "bad e_k summary"
        elif cfg.lln_radius is not None:
            if cfg.kind == "dyson":
                zeros = hermite_zeros(cfg.n)
            else:
                zeros = np.linalg.eigvalsh(laguerre_jacobi(cfg.n, cfg.alpha).dense())
            final = x[-paths:]
            frac = float(np.mean(np.max(np.abs(final - zeros), axis=1) < cfg.lln_radius))
            outcome.verdicts["lln_frac"] = frac
            outcome.verdicts["lln_pass"] = frac >= 0.95
    outcome.ok = not problem
    outcome.reason = problem
    return outcome


def _check_clt(job: Job) -> Outcome:
    cfg = clt_config(job.spec["config"])
    doc = _summary_body(job.out)
    n = cfg.n
    if cfg.mode == "static":
        shapes = {"sigma_hat": (n, n), "rotated": (n, n), "target_diag": (n,),
                  "diag_rel_err": (n,), "mc_stderr": (n, n)}
        keys = np.diag(np.asarray(doc["rotated"], dtype=float))
        verdicts = {"diag_pass": doc["diag_pass"], "offdiag_pass": doc["offdiag_pass"]}
    else:
        shapes = {"variances": (n,), "targets": (n,), "var_stderr": (n,), "correlations": (n, n)}
        keys = np.asarray(doc["variances"], dtype=float)
        verdicts = {"variance_pass": doc["variance_pass"],
                    "independence_pass": doc["independence_pass"]}
    problem = ""
    if doc["samples"] != job.spec["samples"]:
        problem = f"{doc['samples']} samples, expected {job.spec['samples']}"
    for name, shape in shapes.items():
        arr = np.asarray(doc[name], dtype=float)
        if arr.shape != shape:
            problem = problem or f"{name} has shape {arr.shape}, expected {shape}"
        elif not np.all(np.isfinite(arr)):
            problem = problem or f"non-finite value in {name}"
    digest = _digest(json.dumps(doc, sort_keys=True))
    return Outcome(not problem, problem, digest, [float(v) for v in keys], verdicts,
                   work=job.spec["samples"])


_CHECKS = {
    "limit": _check_limit,
    "convolve": _check_convolve,
    "zeros": _check_zeros,
    "simulate": _check_simulate,
    "clt": _check_clt,
}

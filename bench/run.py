"""freezing-dyson benchmark: closed-loop streams of CLI jobs.

Each workload is one client in one process that calls
``freezing_dyson.cli.main(argv)`` jobs back to back.  Inputs come from
``--seed`` and are written before timing starts; every job's output is
checked (see jobs.py).

    python3 bench/run.py --workload exact-limits --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 bench/compare.py .bench_results/A.json .bench_results/B.json

``--trace 0`` runs whole rounds of jobs until ``--seconds`` have passed and
reports the end-to-end metrics, with no instrumentation:

    setup_s      median of 5 fresh processes that import freezing_dyson, build
                 the CLI parser and run one tiny job
    jobs_per_s   jobs completed correctly / time spent inside cli.main
    job_p50_ms   median job latency (the report states the job count)
    job_p95_ms   95th-percentile job latency
    work_per_s   the workload's unit of work per second: roots on
                 exact-limits, path-steps on sde-ensembles, ensemble samples
                 on static-clt (printed as roots_per_s, path_steps_per_s and
                 samples_per_s)
    peak_rss_mb  peak resident set of this process

Times are calibrated against the host's changing speed: a fixed calibration
loop runs between consecutive jobs, and each job's time is scaled by the
loop's nominal time over its measured time around the job (see PROBES and
plain_run); each set-up process is scaled likewise by fresh processes that
only import numpy.  The raw times are printed beside them and saved.  BLAS
thread counts default to 1.
``failed_frac`` (failed jobs / attempted) is printed, and the result line
carries it as ``failed`` and ``attempted``.

``--trace 1`` runs every job twice, untraced and traced in alternating order,
and reports the per-layer metrics of spans.py from the traced runs, with
``trace.overhead_frac`` (traced / untraced time - 1) and
``trace.residue_frac`` (the share of the traced time inside cli.main that no
span's self time covers).

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A results file with the
environment, the metrics and per-job digests is written under
``.bench_results/``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from itertools import cycle
from pathlib import Path
from time import perf_counter, process_time

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# One BLAS thread unless the caller says otherwise: on a shared 2-vCPU host,
# whether a second BLAS thread finds a free core would change job times from
# run to run.  Must precede the numpy import.
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREADS_ENV = "FREEZING_DYSON_THREADS"

SETUP_REPEATS = 5
SETUP_PROBE_NOMINAL_S = 0.15  # a fresh process that imports numpy
SETUP_ARGV = ["zeros", "--family", "hermite", "--n", "3", "--out", "-"]
SETUP_SNIPPET = (
    "import sys, freezing_dyson.cli as cli; cli.build_parser(); "
    f"sys.exit(cli.main({SETUP_ARGV!r}))"
)
# Shortest round of each workload on a 2-core Xeon, used only to decide how
# many rounds of inputs to write up front; a run that outlasts them cycles.
MIN_ROUND_S = {"exact-limits": 1.0, "sde-ensembles": 2.0, "static-clt": 1.5}
# Largest share of the traced wall that may lie outside the recorded spans.
RESIDUE_LIMIT = 0.05

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p95_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# What work_per_s counts on each workload, under the name it is reported as.
WORK_NAMES = {
    "exact-limits": "roots_per_s",
    "sde-ensembles": "path_steps_per_s",
    "static-clt": "samples_per_s",
}


def import_library():
    """Import freezing_dyson from this checkout's ``src``, and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import freezing_dyson  # noqa: F401  (fails when src/ is missing)

    if Path(freezing_dyson.__file__).resolve().parent != SRC / "freezing_dyson":
        raise SystemExit(f"freezing_dyson imported from {freezing_dyson.__file__}, not {SRC}")


def environment(seed: int, threads_env: str | None) -> dict:
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(models, "")
    sha, dirty = None, None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(
                ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
            )

        head = git("rev-parse", "HEAD")
        if head.returncode == 0:
            sha = head.stdout.strip()
            dirty = bool(git("status", "--porcelain").stdout.strip())
    source = hashlib.sha256()
    for path in sorted((SRC / "freezing_dyson").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "freezing_dyson_threads_set": threads_env is not None,
    }


def _spawn(code: str, env: dict) -> tuple:
    """Run ``python -c code`` in a fresh process: (wall seconds, stdout)."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )
    seconds = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.returncode} {proc.stderr.strip()}")
    return seconds, proc.stdout


def measure_setup(repeats: int) -> tuple:
    """Median (calibrated, raw) wall time of a fresh process that imports
    freezing_dyson, builds the parser and runs one tiny job.

    Each one is calibrated by fresh processes that only import numpy, run
    just before and after it: start-up reads files and maps libraries, which
    the in-process calibration loops do not track.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    raw, scaled = [], []
    before, _ = _spawn("import numpy", env)
    for _ in range(repeats):
        seconds, out = _spawn(SETUP_SNIPPET, env)
        if out.strip().splitlines()[-1].count(",") != 2:
            raise RuntimeError(f"set-up process printed {out!r}")
        after, _ = _spawn("import numpy", env)
        raw.append(seconds)
        scaled.append(seconds * SETUP_PROBE_NOMINAL_S / (0.5 * (before + after)))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def _interpreter_loop(_state):
    """Scalar Python arithmetic and numpy calls on 8-element arrays."""
    acc = 0
    for i in range(30000):
        acc += i * i
    a = np.arange(8.0)
    for _ in range(700):
        a = np.where(a > 3.0, a - 1.0, a + 1.0)


def _small_array_loop(_state):
    """Pairwise-difference updates of a (200, 4) state, as in an SDE step."""
    lam = np.linspace(0.0, 1.0, 800).reshape(200, 4)
    for _ in range(240):
        d = lam[:, :, None] - lam[:, None, :]
        ad = np.abs(d)
        np.maximum(ad, 1e-3, out=ad)
        lam = lam + 1e-6 * np.sum(d / ad, axis=2)
        lam.sort(axis=1)


def _wide_buffers():
    x = np.linspace(0.01, 1.0, 50000)
    return x, np.empty_like(x), np.empty_like(x), np.empty(x.shape, dtype=bool)


def _wide_array_loop(buffers):
    """A pivot recurrence over 50000 lanes, streaming memory as a batched
    Sturm count over a wide batch does.  It works in buffers allocated once,
    so the state of the allocator, which the jobs change, does not enter."""
    x, q, t, below = buffers
    q[:] = x
    for _ in range(200):
        np.divide(0.25, q, out=t)
        np.subtract(x, 0.5, out=q)
        np.subtract(q, t, out=q)
        np.less(q, 0.0, out=below)


# Calibration loop of each workload: (loop, its state's constructor, nominal
# seconds).  On a shared 2-vCPU Xeon host a fixed loop runs up to 60% slower
# for seconds to minutes at a time under other tenants' load, more than any
# bound a run could meet, so every timed interval is scaled by nominal /
# measured loop time.  Contention slows interpreter-bound scalar code
# (exact-limits), numpy on small arrays (the SDE engines) and numpy streaming
# arrays larger than the caches (the wide bisection batches of static-clt) by
# different amounts, so each workload is calibrated with a loop of its own
# kind of work.  The array loops run for about 15 ms, to average the
# sub-second switching of the contention over jobs of 0.2 to 2 s.  Nominal
# times are typical on the 2-vCPU Xeon host the bounds were set on.
PROBES = {
    "exact-limits": (_interpreter_loop, None, 0.004),
    "sde-ensembles": (_small_array_loop, None, 0.015),
    "static-clt": (_wide_array_loop, _wide_buffers, 0.015),
}
CALIBRATION_SPAN = 3.0


class Probe:
    """The calibration loop of one workload, ready to time."""

    def __init__(self, kind: str):
        self._loop, make_state, self.nominal_s = PROBES[kind]
        self._state = make_state() if make_state else None

    def __call__(self) -> tuple:
        """Run the loop once: (midpoint time, seconds taken)."""
        t0 = perf_counter()
        self._loop(self._state)
        t1 = perf_counter()
        return 0.5 * (t0 + t1), t1 - t0


def run_job(job):
    """Call cli.main on the job: (exit code or None if it raised, stderr
    text, wall seconds, CPU seconds)."""
    from freezing_dyson import cli

    err = io.StringIO()
    t0, c0 = perf_counter(), process_time()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(job.argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:  # a raised error is a failed job, not a failed run
        code = None
        err.write(f"\n{type(exc).__name__}: {exc}")
    return code, err.getvalue(), perf_counter() - t0, process_time() - c0


def _execute(job, seq: int, traced: bool | None = None) -> dict:
    """Run one job, check its output, remove the output; the job's record."""
    import jobs

    code, err, latency, cpu = run_job(job)
    outcome = jobs.check(job, code, err)
    for path in jobs.output_files(job):
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    rec = {
        "seq": seq, "index": job.index, "spec": job.spec, "latency_s": latency, "cpu_s": cpu,
        "ok": outcome.ok, "reason": outcome.reason, "digest": outcome.digest,
        "keys": outcome.keys, "verdicts": outcome.verdicts, "work": outcome.work,
        "output_bytes": outcome.output_bytes,
    }
    if traced is not None:
        rec["traced"] = traced
    return rec


def _rounds_until(rounds, seconds):
    """Yield rounds until ``seconds`` have passed; at least one, always whole."""
    t0 = perf_counter()
    for i, rnd in enumerate(cycle(rounds)):
        if i and perf_counter() - t0 >= seconds:
            return
        yield rnd


def _percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def plain_run(workload: str, rounds, seconds: float) -> list:
    """Whole rounds until ``seconds`` have passed, with a calibration probe
    between consecutive jobs.

    A job's calibrated time uses the mean of the probes on either side of it
    and of any other probe within CALIBRATION_SPAN job lengths of it, so a
    long job is scaled by the host's speed over about as long a stretch of
    time as the job itself took.
    """
    probe = Probe(workload)
    records, started = [], []
    probes = [probe()]
    for rnd in _rounds_until(rounds, seconds):
        for job in rnd:
            started.append(perf_counter())
            records.append(_execute(job, len(records)))
            probes.append(probe())
    times = np.array([t for t, _ in probes])
    secs = np.array([s for _, s in probes])
    for i, (rec, t0) in enumerate(zip(records, started)):
        reach = CALIBRATION_SPAN * rec["latency_s"]
        near = (times >= t0 - reach) & (times <= t0 + rec["latency_s"] + reach)
        near[i] = near[i + 1] = True
        rec["probe_s"] = float(secs[near].mean())
        rec["calibrated_s"] = rec["latency_s"] * probe.nominal_s / rec["probe_s"]
    return records


def traced_run(rounds, seconds: float, tracer) -> list:
    """Each job twice, untraced and traced, the order alternating by job.

    The first round runs whole, so every job kind is traced; after it the run
    stops at the first job that starts after ``seconds``.
    """
    records = []
    t0 = perf_counter()
    for i, rnd in enumerate(cycle(rounds)):
        for job in rnd:
            if i and perf_counter() - t0 >= seconds:
                return records
            for traced in ((False, True) if job.index % 2 == 0 else (True, False)):
                if traced:
                    tracer.job = len(records)
                    tracer.install()
                    try:
                        records.append(_execute(job, len(records), traced=True))
                    finally:
                        tracer.uninstall()
                else:
                    records.append(_execute(job, len(records), traced=False))
    return records


def end_to_end_metrics(records: list, setup_s: float, key: str) -> dict:
    """The end-to-end metrics from the job latencies under ``key``."""
    latencies = [r[key] for r in records]
    busy = sum(latencies)
    done = [r for r in records if r["ok"]]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "jobs_per_s": len(done) / busy,
        "job_p50_ms": 1e3 * statistics.median(latencies),
        "job_p95_ms": 1e3 * _percentile(latencies, 95),
        "work_per_s": sum(r["work"] for r in done) / busy,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 results_dir: Path | None = None) -> dict:
    """Build the workload's inputs, run it, check it; returns the report."""
    import jobs
    from freezing_dyson import cli

    work_dir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    n_rounds = 1 if seconds <= 0 else math.ceil(seconds / MIN_ROUND_S[workload]) + 1
    if trace:
        n_rounds = math.ceil(n_rounds / 2) + 1
    try:
        rounds = jobs.build(workload, seed, str(work_dir), n_rounds, tiny=tiny)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(SETUP_ARGV)  # warm-up: lazy imports, first-call costs
        report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "tiny": tiny, "problems": []}
        if trace:
            import spans

            tracer = spans.Tracer()
            records = traced_run(rounds, seconds, tracer)
            report.update(_trace_report(records, tracer, report["problems"]))
            if results_dir is not None:
                results_dir.mkdir(parents=True, exist_ok=True)
                tracer.write(str(results_dir / f"{workload}-seed{seed}-trace1.spans.jsonl"))
        else:
            setup_cal, setup_raw = measure_setup(1 if tiny else SETUP_REPEATS)
            records = plain_run(workload, rounds, seconds)
            report["metrics"] = {
                name: {"value": value, "unit": END_TO_END_UNITS[name]}
                for name, value in end_to_end_metrics(records, setup_cal, "calibrated_s").items()
            }
            report["raw_metrics"] = end_to_end_metrics(records, setup_raw, "latency_s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failed = [r for r in records if not r["ok"]]
    report["attempted"] = len(records)
    report["failed"] = len(failed)
    report["failed_frac"] = len(failed) / len(records)
    report["jobs"] = records
    report["correct"] = not failed and not report["problems"]
    return report


def _trace_report(records, tracer, problems) -> dict:
    import spans

    traced = [r for r in records if r["traced"]]
    plain = {r["index"]: r for r in records if not r["traced"]}
    for r in traced:
        if r["digest"] != plain[r["index"]]["digest"]:
            problems.append(f"job {r['index']}: traced output differs from untraced")
    traced_wall = sum(r["latency_s"] for r in traced)
    plain_wall = sum(r["latency_s"] for r in plain.values())
    span_self = sum(spans.self_times(tracer.spans))
    residue = 1.0 - span_self / traced_wall
    if not 0.0 <= residue <= RESIDUE_LIMIT:
        problems.append(f"span self times cover {1 - residue:.4f} of the traced wall")
    layer = spans.layer_metrics(tracer.spans, sum(r["output_bytes"] for r in traced))
    layer["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "ratio")
    layer["trace.residue_frac"] = (residue, "ratio")
    name, secs = spans.largest_self(tracer.spans)
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layer.items()},
        "largest_self": {"name": name, "self_s": secs, "share": secs / span_self},
        "wrapped": tracer.wrapped_names(),
    }


def print_report(report: dict):
    w = report["workload"]
    print(f"== {w}  seed {report['seed']}  trace {report['trace']}  "
          f"jobs {report['attempted']}  failed {report['failed']}")
    raw = report.get("raw_metrics", {})
    for name, m in report["metrics"].items():
        line = f"  {name:48s} {m['value']:.6g} {m['unit']}"
        if name in raw and name != "peak_rss_mb":
            line += f"  (raw {raw[name]:.6g})"
        print(line)
        if name == "work_per_s":
            print(f"  {WORK_NAMES[w]:48s} {m['value']:.6g} 1/s")
        if name == "job_p95_ms":
            n = report["attempted"]
            print(f"  {'(latency sample count)':48s} {n} jobs, {n - math.ceil(0.95 * n)} above p95")
    print(f"  {'failed_frac':48s} {report['failed_frac']:.6g} ratio")
    if "largest_self" in report:
        ls = report["largest_self"]
        print(f"  largest self time: {ls['name']} {ls['self_s']:.4g} s "
              f"({100 * ls['share']:.1f}% of all self time)")
    verdicts = {}
    for r in report["jobs"]:
        if r.get("traced") is False:
            continue
        label = r["spec"].get("config", r["spec"]["command"])
        for key, value in r["verdicts"].items():
            if isinstance(value, bool):
                tally = verdicts.setdefault((label, key), [0, 0])
                tally[0] += value
                tally[1] += 1
    for (label, key), (passed, total) in sorted(verdicts.items()):
        if passed < total:
            print(f"  monte carlo verdict (not gating): {label} {key} true in {passed}/{total}")
    for r in report["jobs"]:
        if not r["ok"]:
            print(f"  FAILED job {r['index']} {json.dumps(r['spec'])[:160]}: {r['reason']}")
    for problem in report["problems"]:
        print(f"  PROBLEM {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir", default=str(ROOT / ".bench_results"))
    args = parser.parse_args(argv)
    # The library's default thread count is what gets measured.
    threads_env = os.environ.pop(THREADS_ENV, None)
    import_library()
    import jobs

    if args.workload == "all":
        return run_all(args, threads_env)
    if args.workload not in jobs.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(jobs.WORKLOADS)} or all")
    results_dir = Path(args.results_dir)
    env = environment(args.seed, threads_env)
    print("environment: " + json.dumps(env, sort_keys=True))
    report = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), results_dir=results_dir
    )
    print_report(report)
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "workloads": {args.workload: report}}, fh)
    print(f"results: {path}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


def run_all(args, threads_env: str | None) -> int:
    """Each workload in a process of its own, one after the other; a last
    line that merges theirs, metric names prefixed by workload."""
    import jobs

    env = dict(os.environ)
    if threads_env is not None:
        env[THREADS_ENV] = threads_env  # for the child to record, and remove
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in jobs.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--results-dir", args.results_dir]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())

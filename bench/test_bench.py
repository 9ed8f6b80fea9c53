"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import os
import shutil

import pytest

import run

run.import_library()

import compare  # noqa: E402
import jobs  # noqa: E402

with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


@pytest.fixture
def work_dir(request):
    """A working directory inside the checkout, removed afterwards."""
    path = run.ROOT / ".bench_work" / f"test-{os.getpid()}-{request.node.name}"
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_every_declared_metric_is_emitted(workload):
    plain = run.run_workload(workload, seed=3, seconds=0, trace=False, tiny=True)
    assert plain["correct"], plain["problems"]
    assert set(plain["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for m in BENCHMARK["end_to_end"]:
        got = plain["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0.0 and math.isfinite(got["value"])

    traced = run.run_workload(workload, seed=3, seconds=0, trace=True, tiny=True)
    assert traced["correct"], traced["problems"]
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for m in BENCHMARK["per_layer"]:
        assert traced["metrics"][m["name"]]["unit"] == m["unit"]
    # attribution: bisection never runs under the SDE engines, and dominates CLT
    batch = traced["metrics"]["orthopoly.eigen_tridiag_batch.self_s"]["value"]
    if workload == "sde-ensembles":
        assert batch == 0.0
        assert traced["metrics"]["stochastic.dyson.n4.ns_per_path_step"]["value"] > 0.0
    if workload == "static-clt":
        assert traced["largest_self"]["name"] == "orthopoly.eigen_tridiag_batch"


def _first(rounds, command):
    return next(job for job in rounds[0] if job.spec["command"] == command)


def _run_and_check(job):
    code, err, _, _ = run.run_job(job)
    return jobs.check(job, code, err)


def _rewrite(path, edit):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(edit(text))


def test_perturbed_outputs_count_as_failures(work_dir):
    exact = jobs.build("exact-limits", 5, str(work_dir / "e"), 1, tiny=True)

    limit = _first(exact, "limit")
    assert _run_and_check(limit).ok

    def widen_route_gap(text):
        meta_line, rest = text.split("\n", 1)
        meta = json.loads(meta_line[1:])
        meta["config"]["route_discrepancy"] = 1e-6
        return "# " + json.dumps(meta) + "\n" + rest

    _rewrite(limit.out, widen_route_gap)
    bad = jobs.check(limit, 0, "")
    assert not bad.ok and "route discrepancy" in bad.reason

    conv = _first(exact, "convolve")
    assert _run_and_check(conv).ok

    def shift_last_root(text):
        lines = text.splitlines()
        values = lines[-1].split(",")
        values[-1] = repr(float(values[-1]) + 1e-6)
        return "\n".join(lines[:-1] + [",".join(values)]) + "\n"

    _rewrite(conv.out, shift_last_root)
    assert not jobs.check(conv, 0, "").ok

    assert not jobs.check(limit, 3, "numerical failure: no sign change").ok

    sde = jobs.build("sde-ensembles", 5, str(work_dir / "s"), 1, tiny=True)
    sim = next(job for job in sde[0] if job.spec["config"] == "crit7-dyson")
    assert _run_and_check(sim).ok

    def swap_first_row(text):
        lines = text.splitlines()
        i = next(k for k, line in enumerate(lines) if not line.startswith("#"))
        cells = lines[i].split(",")
        cells[2], cells[3] = cells[3], cells[2]
        lines[i] = ",".join(cells)
        return "\n".join(lines) + "\n"

    _rewrite(sim.out, swap_first_row)
    bad = jobs.check(sim, 0, "")
    assert not bad.ok and "unsorted" in bad.reason

    clt = jobs.build("static-clt", 5, str(work_dir / "c"), 1, tiny=True)
    job = next(job for job in clt[0] if job.spec["config"] == "static-gaussian-3")
    assert _run_and_check(job).ok

    def nan_rotated(text):
        doc = json.loads(text)
        doc["rotated"][0][0] = float("nan")
        return json.dumps(doc)

    _rewrite(job.out, nan_rotated)
    assert not jobs.check(job, 0, "").ok


def test_same_seed_same_jobs_and_digests(work_dir):
    first = jobs.build("exact-limits", 11, str(work_dir / "a"), 2, tiny=True)
    second = jobs.build("exact-limits", 11, str(work_dir / "b"), 2, tiny=True)
    other = jobs.build("exact-limits", 12, str(work_dir / "c"), 2, tiny=True)
    specs = [[job.spec for job in rnd] for rnd in first]
    assert specs == [[job.spec for job in rnd] for rnd in second]
    assert specs != [[job.spec for job in rnd] for rnd in other]
    for a, b in zip(first[0][:8], second[0][:8]):
        da, db = _run_and_check(a), _run_and_check(b)
        assert da.ok and db.ok
        assert da.digest == db.digest


def test_compare_reports_identical_and_differing_jobs(capsys, work_dir):
    report = run.run_workload("static-clt", seed=4, seconds=0, trace=False, tiny=True)
    same, lines = compare.compare_workload(report["jobs"], report["jobs"])
    assert same and lines[0].startswith("bit-identical")

    changed = json.loads(json.dumps(report["jobs"]))
    changed[2]["digest"] = "0" * 64
    changed[2]["keys"][0] += 2.5e-13
    same, lines = compare.compare_workload(report["jobs"], changed)
    assert not same
    assert "1 of" in lines[0] and "2.500e-13" in lines[1]

    paths = []
    work_dir.mkdir(parents=True)
    for name, recs in (("a", report["jobs"]), ("b", changed)):
        path = work_dir / f"{name}.json"
        path.write_text(json.dumps({"env": {}, "workloads": {"static-clt": {"jobs": recs}}}))
        paths.append(str(path))
    assert compare.main(paths) == 1
    assert "differ" in capsys.readouterr().out

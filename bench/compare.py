"""Compare the job outputs of two benchmark results files.

    python3 bench/compare.py .bench_results/A.json .bench_results/B.json

For each workload present in both files, jobs are matched by their index
(the same seed gives the same jobs) and their output digests compared.  The
report says "bit-identical" or lists the jobs that differ with the largest
absolute difference of their recorded key numbers (roots, e_k means,
rotated-covariance diagonals or primitive variances).  Exit code 0 when every
compared job is bit-identical, 1 otherwise.
"""

import argparse
import json
import sys


def first_runs(jobs: list) -> dict:
    """The first recorded run of each job index."""
    out = {}
    for rec in jobs:
        out.setdefault(rec["index"], rec)
    return out


def compare_workload(a_jobs: list, b_jobs: list) -> tuple:
    """(identical, report lines) for two job lists of one workload."""
    a, b = first_runs(a_jobs), first_runs(b_jobs)
    common = sorted(set(a) & set(b))
    if any(a[i]["spec"] != b[i]["spec"] for i in common):
        return False, ["job lists differ (another seed or job design); outputs not compared"]
    differ = []
    for i in common:
        if a[i]["digest"] == b[i]["digest"]:
            continue
        ka, kb = a[i]["keys"], b[i]["keys"]
        if len(ka) == len(kb) and ka:
            diff = f"max abs diff {max(abs(x - y) for x, y in zip(ka, kb)):.3e}"
        else:
            diff = "key numbers missing or of different length"
        label = a[i]["spec"].get("config", a[i]["spec"]["command"])
        differ.append(f"job {i} ({label}): {diff}")
    head = f"{len(common)} jobs compared"
    if not differ:
        return True, [f"bit-identical ({head})"]
    return False, [f"{len(differ)} of {head} differ"] + ["  " + line for line in differ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first")
    parser.add_argument("second")
    args = parser.parse_args(argv)
    docs = []
    for path in (args.first, args.second):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    identical = True
    names = [w for w in docs[0]["workloads"] if w in docs[1]["workloads"]]
    if not names:
        print("no workload in common")
        return 1
    for name in names:
        same, lines = compare_workload(
            docs[0]["workloads"][name]["jobs"], docs[1]["workloads"][name]["jobs"]
        )
        identical &= same
        print(f"{name}: " + lines[0])
        for line in lines[1:]:
            print(line)
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare, merge and validate the benchmark's result files.

  compare.py A.json B.json      one row per (metric, workload): better / same / worse /
                                unresolved, by the bounds in BENCHMARK.json; exit 1 on any
                                worse row or a higher failure share. Each side may be a
                                comma-separated list of result files (repeated runs).
  compare.py --merge OUT_DIR    fold OUT_DIR/<workload>[-trace].json into OUT_DIR/result.json
  compare.py --check RESULT     RESULT carries exactly the workloads and metrics that
                                BENCHMARK.json declares, each with unit, sample count and
                                quartiles, and every run in it was correct
"""
import json
import math
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
PASSES = {"end_to_end": SPEC["end_to_end"], "traced": SPEC["per_layer"]}


def load(path):
    with open(path) as f:
        return json.load(f)


def merge(out_dir):
    docs = {}
    for w in WORKLOADS:
        plain = os.path.join(out_dir, f"{w}.json")
        traced = os.path.join(out_dir, f"{w}-trace.json")
        if not os.path.exists(plain):
            sys.exit(f"compare.py: {plain} is missing (did the workload run?)")
        docs[w] = {
            "end_to_end": load(plain),
            "traced": load(traced) if os.path.exists(traced) else None,
        }
    first = docs[WORKLOADS[0]]["end_to_end"]
    result = {"schema": 1, "workloads": docs}
    for key in ("seed", "seconds", "smoke", "host_cores", "workers", "git_rev", "transport"):
        result[key] = first[key]
    path = os.path.join(out_dir, "result.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    label = "SMOKE (not comparable) " if result["smoke"] else ""
    print(f"{label}seed {result['seed']}  host_cores {result['host_cores']}  "
          f"git {result['git_rev']}  bus {result['transport']}")
    names = [m["name"] for m in SPEC["end_to_end"]]
    print(f"{'workload':<14}" + "".join(f"{n:>24}" for n in names))
    for w in WORKLOADS:
        metrics = docs[w]["end_to_end"]["metrics"]
        print(f"{w:<14}" + "".join(f"{metrics[n]['value']:>24.4f}" for n in names))
    print(f"wrote {path}")


def check(path):
    result = load(path)
    problems = []
    if sorted(result["workloads"]) != sorted(WORKLOADS):
        problems.append(f"workloads {sorted(result['workloads'])} != declared {sorted(WORKLOADS)}")
    for w, passes in result["workloads"].items():
        for which, declared in PASSES.items():
            doc = passes.get(which)
            if doc is None:
                if which == "end_to_end":
                    problems.append(f"{w}: no end-to-end pass")
                continue
            want = {m["name"]: m["unit"] for m in declared}
            got = doc["metrics"]
            for name in sorted(set(want) ^ set(got)):
                problems.append(f"{w}/{which}: {name} is {'missing' if name in want else 'undeclared'}")
            for name in sorted(set(want) & set(got)):
                m = got[name]
                if m.get("unit") != want[name]:
                    problems.append(f"{w}/{which}: {name} unit {m.get('unit')!r} != {want[name]!r}")
                for key in ("value", "n", "q1", "q3"):
                    if not isinstance(m.get(key), (int, float)):
                        problems.append(f"{w}/{which}: {name} has no numeric {key}")
            if not doc["correct"] or doc["failed"]:
                problems.append(f"{w}/{which}: {doc['failed']} of {doc['attempted']} failed: {doc['failures']}")
    for p in problems:
        print("CHECK FAILED:", p)
    if problems:
        sys.exit(1)
    print(f"check ok: {path} matches BENCHMARK.json "
          f"({len(WORKLOADS)} workloads, {len(SPEC['end_to_end'])} end-to-end metrics"
          + (f", {len(SPEC['per_layer'])} per-layer metrics" if all(
              p.get("traced") for p in result["workloads"].values()) else "") + ")")


def side(paths):
    runs = [load(p) for p in paths.split(",")]
    for r, p in zip(runs, paths.split(",")):
        if r["smoke"]:
            sys.exit(f"compare.py: {p} is a smoke run; smoke results are not comparable")
    return runs


def reading(runs, workload, metric):
    """(median, relative spread, lowest, highest) of one metric on one side.

    Several runs: the spread is the runs' interquartile range over their median. One run:
    the run's own samples stand in, and the spread of their median is estimated as
    IQR / sqrt(n) (the standard error of a median is about 0.93 * IQR / sqrt(n))."""
    ms = [r["workloads"][workload]["end_to_end"]["metrics"][metric] for r in runs]
    if len(ms) > 1:
        values = [m["value"] for m in ms]
        q = statistics.quantiles(values, n=4)
        mid = statistics.median(values)
        return mid, (q[2] - q[0]) / abs(mid), min(values), max(values)
    m = ms[0]
    spread = (m["q3"] - m["q1"]) / math.sqrt(m["n"]) / abs(m["value"])
    return m["value"], spread, m["min"], m["max"]


def compare(a_paths, b_paths):
    a_runs, b_runs = side(a_paths), side(b_paths)
    worse = 0
    print(f"{'metric':<26}{'workload':<14}{'A':>16}{'B':>16}{'gain':>9}{'bound':>7}{'spread':>8}  verdict")
    for m in SPEC["end_to_end"]:
        higher = m["better"] == "higher"
        for w in WORKLOADS:
            a, a_spread, a_lo, a_hi = reading(a_runs, w, m["name"])
            b, b_spread, b_lo, b_hi = reading(b_runs, w, m["name"])
            gain = (b - a) / abs(a) * (1 if higher else -1)
            spread = max(a_spread, b_spread)
            apart = b_lo > a_hi if higher else b_hi < a_lo
            if spread > m["bound"] and not apart:
                verdict = "unresolved"
            elif gain < -m["bound"]:
                verdict = "WORSE"
                worse += 1
            elif gain > m["bound"]:
                verdict = "better"
            else:
                verdict = "same"
            print(f"{m['name']:<26}{w:<14}{a:>16.4f}{b:>16.4f}{gain * 100:>+8.1f}%"
                  f"{m['bound'] * 100:>6.0f}%{spread * 100:>7.1f}%  {verdict}")
    for w in WORKLOADS:
        shares = []
        for runs in (a_runs, b_runs):
            docs = [r["workloads"][w]["end_to_end"] for r in runs]
            shares.append(sum(d["failed"] for d in docs) / sum(d["attempted"] for d in docs))
        verdict = "same"
        if shares[1] > shares[0]:
            verdict = "WORSE"
            worse += 1
        print(f"{'failure_share':<26}{w:<14}{shares[0]:>16.2e}{shares[1]:>16.2e}{'':>24}  {verdict}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) == 2 and args[0] == "--merge":
        merge(args[1])
    elif len(args) == 2 and args[0] == "--check":
        check(args[1])
    elif len(args) == 2 and not args[0].startswith("-"):
        compare(args[0], args[1])
    else:
        sys.exit(__doc__)

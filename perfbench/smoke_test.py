#!/usr/bin/env python3
"""Tiny-size smoke test of the benchmark itself. Run from the repository root:

    python3 perfbench/smoke_test.py

It checks that every workload's output parses, that the workload and metric
names and units match BENCHMARK.json exactly, that every run is correct, and
that two runs with the same seed give identical modelled throughput and
identical count metrics. Exits nonzero on the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
TINY = ["--seed", "7", "--seconds", "1", "--size", "tiny"]


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def run(args):
    proc = subprocess.run(RUN + args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, cwd=ROOT)
    return proc.returncode, proc.stdout.splitlines()


def result(workload, trace):
    rc, lines = run(["--workload", workload, "--trace", str(trace)] + TINY)
    if rc != 0 or not lines:
        fail(f"{workload} --trace {trace}: exit {rc}")
    last = json.loads(lines[-1])
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(last)}")
    if last["correct"] is not True or last["failed"] != 0 or last["attempted"] < 1:
        fail(f"{workload} --trace {trace}: not correct: {lines[-1][:200]}")
    full = [json.loads(l[len("# full "):]) for l in lines if l.startswith("# full ")]
    if len(full) != 1:
        fail(f"{workload}: expected one '# full' line")
    return last, full[0]


def check_names(workload, metrics, defs):
    want = {d["name"]: d["unit"] for d in defs}
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != want:
        fail(f"{workload}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
             f"units {[k for k in want if k in got and got[k] != want[k]]}")
    for k, v in metrics.items():
        if not isinstance(v["value"], (int, float)):
            fail(f"{workload}: {k} is not a number")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    sys.path.insert(0, HERE)
    sys.dont_write_bytecode = True
    import run as runner  # the workload list of run.py's "all" mode
    if runner.WORKLOADS != workloads:
        fail(f"run.py workloads {runner.WORKLOADS} != BENCHMARK.json {workloads}")

    for w in workloads:
        plain, _ = result(w, 0)
        check_names(w, plain["metrics"], spec["end_to_end"])
        traced, full_a = result(w, 1)
        check_names(w, traced["metrics"], spec["per_layer"])
        _, full_b = result(w, 1)
        a, b = full_a["metrics"], full_b["metrics"]
        same = ["modeled_ops_per_s"] + [k for k, v in a.items() if v["unit"] == "count"]
        for k in same:
            if a[k]["value"] != b[k]["value"]:
                fail(f"{w}: {k} differs between two runs of seed 7: "
                     f"{a[k]['value']} vs {b[k]['value']}")
        print(f"ok {w}: {len(plain['metrics'])} end-to-end, {len(traced['metrics'])} per-layer, "
              f"{len(same)} metrics repeat exactly")

    rc, lines = run(["--workload", "no-such-workload", "--trace", "0"] + TINY)
    if rc == 0 or any(l.startswith("{") for l in lines):
        fail("an unknown workload must fail without printing a result")
    print("ok: unknown workload rejected")


if __name__ == "__main__":
    main()

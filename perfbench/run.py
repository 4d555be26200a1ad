#!/usr/bin/env python3
"""Build and run the repository benchmark (README.md in this directory).

From the root of a checkout:

    python3 perfbench/run.py --workload kv-read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

The first form builds perfbench/ (which compiles ../src) into the directory
named by CARGO_TARGET_DIR, default .bench_build, then runs one workload; its
last stdout line is the JSON result. Build output goes to stderr. The second
form runs every workload traced and adds the derived lines: the cached /
uncached throughput ratio in both clocks, the put cost against the entry
table size, and the CPU each workload charges per op.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["kv-read", "kv-read-nocache", "kv-update", "lcc-rmat"]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; returns the binary path or None."""
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cache = os.path.join(build_dir, "CMakeCache.txt")
    configured = os.path.exists(os.path.join(build_dir, "Makefile"))
    if os.path.exists(cache):
        with open(cache) as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not configured or not home or home[0].split("=", 1)[1].strip() != HERE:
            shutil.rmtree(build_dir)  # half-configured, or for another checkout
            configured = False
    steps = []
    if not configured:
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed:", " ".join(cmd))
            return None
    return os.path.join(build_dir, "perfbench")


def run_one(binary, workload, args):
    """Run one workload; returns (exit code, stdout text)."""
    proc = subprocess.run([binary, "--workload", workload] + args,
                          stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def full_report(stdout):
    for line in stdout.splitlines():
        if line.startswith("# full "):
            return json.loads(line[len("# full "):])
    return None


def run_all(binary, args):
    """Every workload, traced, then the derived lines. Exit 1 on any failure."""
    reports, ok = {}, True
    for w in WORKLOADS:
        rc, out = run_one(binary, w, args + ["--trace", "1"])
        sys.stdout.write("".join(l + "\n" for l in out.splitlines()[:-1]))
        rep = full_report(out)
        if rc != 0 or rep is None or not rep["correct"]:
            ok = False
        if rep is not None:
            reports[w] = rep
    if len(reports) != len(WORKLOADS):
        return 1

    def val(w, name):
        return reports[w]["metrics"][name]["value"]

    print("# derived (not gated):")
    for clock, name in (("measured", "ops_per_s"), ("modelled", "modeled_ops_per_s")):
        c, u = val("kv-read", name), val("kv-read-nocache", name)
        print(f"#   {clock}-clock cached/uncached = {c / u:.3f}"
              f" (kv-read {c:.1f} op/s / kv-read-nocache {u:.1f} op/s)")
    print(f"#   kv-update put rung: kv.put.wall_ns.p50 {val('kv-update', 'kv.put.wall_ns.p50'):.0f} ns"
          f" at clampi.entry_slots_at_put.mean {val('kv-update', 'clampi.entry_slots_at_put.mean'):.0f}"
          f" over {val('kv-update', 'kv.put.count'):.0f} puts")
    for w in WORKLOADS:
        print(f"#   {w}: clock.cpu_us_per_op {val(w, 'clock.cpu_us_per_op'):.4f}"
              f" = 1e6/ops_per_s ({val(w, 'ops_per_s'):.1f}) - 1e6/modeled_ops_per_s"
              f" ({val(w, 'modeled_ops_per_s'):.1f})")
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": {f"{w}/{k}": v for w, r in reports.items() for k, v in r["metrics"].items()},
    }))
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    if "--workload" not in argv or argv.index("--workload") + 1 >= len(argv):
        log("usage: run.py --workload NAME|all --seed N --seconds S [--trace 0|1] [--size tiny]")
        return 2
    i = argv.index("--workload")
    workload = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    binary = build()
    if binary is None:
        return 1
    if workload == "all":
        if "--trace" in rest:
            j = rest.index("--trace")
            del rest[j:j + 2]
        return run_all(binary, rest)
    rc, out = run_one(binary, workload, rest)
    sys.stdout.write(out)
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""vexperf launcher: builds the benchmark from this checkout, then runs it.

    python3 vexperf/run.py --workload paper_mix --seed 1 --seconds 30 --trace 0
    python3 vexperf/run.py --workload all --seed 1 --seconds 30 --trace 1

The build goes to $CARGO_TARGET_DIR (default .bench_build, relative to the
checkout root); scratch files and result caches go to a private directory
under it and are removed when the run ends. Any further arguments are passed
to the vexperf program (see README.md). The last line of standard output is
the run's JSON result; the exit code is nonzero when a check failed, and
when the build fails no result is printed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_mix", "design_space", "warm_rerun")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds vexperf; returns the program's path."""
    pkg = os.path.join(out_dir, "vexperf")
    if not os.path.exists(os.path.join(pkg, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", pkg,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", pkg, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(pkg, "vexperf")


def run_one(binary, out_dir, workload, args, extra):
    work = os.path.join(out_dir, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", work]
    if args.trace:
        cmd += ["--spans", os.path.join(out_dir, "spans-%s.json" % workload)]
    proc = subprocess.run(cmd + extra, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print("vexperf: build failed: %s" % err, file=sys.stderr)
        return 2

    if args.workload != "all":
        code, _ = run_one(binary, out_dir, args.workload, args, extra)
        return code

    # Every workload in its own process, then one combined result line.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, out = run_one(binary, out_dir, workload, args, extra)
        worst = max(worst, code)
        lines = out.strip().splitlines()
        if code not in (0, 1) or not lines:
            return code or 2
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, name)] = metric
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Time-to-target benchmark for delaylb (see perfbench/README.md).

One run:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

builds the benchmark package on first use (into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench), solves workload W for S seconds and prints
one JSON object as the last line of stdout: correct / attempted / failed and
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

Other commands, all run from the repository root:

    --reps N [--workload W] [--trace 0|1] [--json-out F]
        N runs per workload with seeds 1..N; median and quartiles of every
        metric, the spread against BENCHMARK.json's bounds, and a machine
        block (nproc, CPU, compiler, build type, DELAYLB_ARCH, git sha).
    --check [--workload W] [--seed N]
        determinism gate: repeat, traced-vs-untraced and (sharded
        workloads) shards=1-vs-sharded fingerprints must be identical.
    --regen-lb [--workload W]
        long reference solves; rewrites perfbench/lb_ref.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
LB_FILE = os.path.join(HERE, "lb_ref.json")
WORKLOADS = ["central-planetlab", "dist-gossip", "dist-churn-sharded"]
# Reference solves for --regen-lb: engine step cap and the certified gap
# at which the solve may stop early.
REFERENCE = {
    "central-planetlab": {"max-steps": "300", "stop-gap": "5e-5"},
    "dist-gossip": {"max-steps": "150", "stop-gap": "3e-4"},
    "dist-churn-sharded": {"max-steps": "120", "stop-gap": "3e-4"},
}
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures (once) and builds the package; returns the binary path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench_ttt")


def load_lb():
    with open(LB_FILE) as f:
        return json.load(f)


def ref_args(lb, workload):
    entry = lb[workload]
    return ["--lb-ref", repr(entry["lb_ref"]),
            "--instance-hash", entry["instance_hash"]]


def run_once(binary, lb, workload, seed, seconds, trace):
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-dir", trace_dir] + ref_args(lb, workload)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def parse_result(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("malformed result line")
    return result


def machine_block():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        version = subprocess.run([compiler, "--version"],
                                 stdout=subprocess.PIPE, text=True)
        compiler = version.stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    sha = "unknown"
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        if git.returncode == 0:
            sha = git.stdout.strip()
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "DELAYLB_ARCH": cache.get("DELAYLB_ARCH", ""), "git_sha": sha}


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m.get("bound") for m in spec["end_to_end"]}


def reps(args, binary, lb):
    workloads = [args.workload] if args.workload else WORKLOADS
    bound = bounds()
    record = {"machine": machine_block(), "seconds": args.seconds,
              "trace": args.trace, "runs": args.reps, "workloads": {}}
    ok = True
    for workload in workloads:
        values, units, attempted, failed = {}, {}, [], []
        for seed in range(1, args.reps + 1):
            code, out = run_once(binary, lb, workload, seed, args.seconds,
                                 args.trace)
            if code != 0:
                print(f"{workload} seed {seed}: exit {code}", file=sys.stderr)
                ok = False
                continue
            result = parse_result(out)
            ok = ok and result["correct"]
            attempted.append(result["attempted"])
            failed.append(result["failed"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        rows = {}
        print(f"\n{workload}: {len(attempted)} runs, "
              f"{sum(attempted)} solves attempted, {sum(failed)} failed")
        print(f"  {'metric':32} {'unit':6} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = (statistics.quantiles(vals, n=4)
                           if len(vals) > 1 else (vals[0],) * 3)
            spread = (q3 - q1) / med if med else 0.0
            b = bound.get(name)
            flag = ""
            if b is not None and name != "setup_s" and spread > b / 3:
                flag = "  > bound/3"
            rows[name] = {"unit": units[name], "median": med, "q1": q1,
                          "q3": q3, "spread": spread, "values": vals}
            print(f"  {name:32} {units[name]:6} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.4f} "
                  f"{'' if b is None else b:>6}{flag}")
        record["workloads"][workload] = {
            "attempted": attempted, "failed": failed, "metrics": rows}
    print(json.dumps({"machine": record["machine"]}))
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump(record, f, indent=1)
    return 0 if ok else 1


def regen(args, binary):
    lb = {}
    if os.path.exists(LB_FILE):
        lb = load_lb()
    describe = json.loads(subprocess.run(
        [binary, "describe"], stdout=subprocess.PIPE, text=True,
        check=True).stdout)
    makeup = {w["name"]: w for w in describe}
    for workload in ([args.workload] if args.workload else WORKLOADS):
        cmd = [binary, "lbref", "--workload", workload]
        for key, value in REFERENCE[workload].items():
            cmd += ["--" + key, value]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=True)
        entry = json.loads(proc.stdout.splitlines()[-1])
        entry["instance"] = makeup[workload]
        lb[workload] = entry
        print(json.dumps(entry))
    with open(LB_FILE, "w") as f:
        json.dump(lb, f, indent=1)
        f.write("\n")
    return 0


def check(args, binary, lb):
    ok = True
    for workload in ([args.workload] if args.workload else WORKLOADS):
        proc = subprocess.run(
            [binary, "check", "--workload", workload, "--seed",
             str(args.seed if args.seed is not None else 1)]
            + ref_args(lb, workload))
        ok = ok and proc.returncode == 0
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--reps", type=int)
    parser.add_argument("--json-out")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--regen-lb", action="store_true")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if args.regen_lb:
        return regen(args, binary)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    lb = load_lb()
    if args.check:
        return check(args, binary, lb)
    if args.reps:
        return reps(args, binary, lb)
    if args.workload is None or args.seed is None:
        parser.error("a run needs --workload and --seed")
    try:
        code, out = run_once(binary, lb, args.workload, args.seed,
                             args.seconds, args.trace)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    if code != 0:
        return code
    try:
        parse_result(out)
    except ValueError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

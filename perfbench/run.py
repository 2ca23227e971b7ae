#!/usr/bin/env python3
"""Run one benchmark workload from a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seconds S]    # every workload, both runs

Builds the benchmark (perfbench/main.exe) and the preoc worker binary from
source with dune, pins the environment (PREO_* and OCAMLRUNPARAM removed,
every workload bound to one CPU), runs the workload under a timeout,
and relays its output. The last line printed is the workload's JSON result.
The environment (nproc, CPU affinity, load average, commit) is printed
before it and saved with the result under .perfbench_out/.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench_out")
MAIN = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
PREOC = os.path.join(ROOT, "_build", "default", "bin", "preoc.exe")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def check_layout():
    for rel in ("dune-project", "lib", os.path.join("bin", "preoc.ml")):
        if not os.path.exists(os.path.join(ROOT, rel)):
            fail("not a preo source checkout: %s is missing under %s" % (rel, ROOT))
    for tool in ("dune", "taskset"):
        if shutil.which(tool) is None:
            fail(tool + " is not on PATH")


def build():
    cmd = ["dune", "build", "--root", ROOT, "./perfbench/main.exe", "./bin/preoc.exe"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True, timeout=850)
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-4000:])
        fail("build failed: " + " ".join(cmd))
    for exe in (MAIN, PREOC):
        if not os.path.exists(exe):
            fail("build did not produce " + exe)


def commit():
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=10)
        if p.returncode == 0:
            return p.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True


def stop_group(pgid):
    """Kill whatever the run left in its process group (shard workers) and
    wait until the group is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    deadline = time.monotonic() + 10
    while group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


def run_workload(workload, seed, seconds, trace, spec):
    """Run one workload; returns (exit code, stdout lines, parsed result)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PREO_") and k != "OCAMLRUNPARAM"}
    cmd = [MAIN, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--preoc", PREOC, "--out", OUT]
    # Every workload runs on one CPU (the shard workers inherit it): on a
    # small shared machine, hand-offs between threads and processes are
    # steadier there than spread over CPUs.
    cpu = sorted(os.sched_getaffinity(0))[-1]
    cmd = ["taskset", "-c", str(cpu)] + cmd
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "affinity": [cpu],
        "loadavg": [round(x, 2) for x in os.getloadavg()], "commit": commit(),
    }
    print("# env " + json.dumps(record, sort_keys=True), flush=True)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=float(seconds) + 140)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        out, _ = proc.communicate()
        out += "# timeout: the run did not finish and was killed\n"
        code = 124
    stop_group(proc.pid)
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines.pop()
        except ValueError:
            result = None
    if result is not None:
        problem = check_result(result, spec, trace)
        if problem:
            lines.append("# invalid result: " + problem)
            result, code = None, code or 1
    if result is None:
        code = code or 1
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    record["exit_code"] = code
    record["result"] = result
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "result-%s-trace%d-seed%d.json" % (workload, trace, seed)), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return code, lines, result


def check_result(result, spec, trace):
    if set(result) != RESULT_KEYS:
        return "keys %s" % sorted(result)
    want = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in want}:
        return "metrics differ from BENCHMARK.json: %s" % sorted(set(got) ^ {m["name"] for m in want})
    for m in want:
        if got[m["name"]].get("unit") != m["unit"]:
            return "unit of %s is %s, BENCHMARK.json says %s" % (m["name"], got[m["name"]].get("unit"), m["unit"])
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    args = ap.parse_args()
    check_layout()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if not args.all and args.workload not in names:
        fail("--workload must be one of %s" % ", ".join(names))
    os.makedirs(OUT, exist_ok=True)
    build()
    if not args.all:
        code, lines, result = run_workload(args.workload, args.seed, seconds, args.trace, spec)
        for line in lines:
            print(line)
        print(json.dumps(result), flush=True)
        sys.exit(code)
    worst = 0
    for name in names:
        for trace in (0, 1):
            code, lines, result = run_workload(name, args.seed, seconds, trace, spec)
            worst = worst or code
            for line in lines:
                print(line)
            print("%s (%s): correct=%s attempted=%d failed=%d error_rate=%.3g" % (
                name, "per-layer" if trace else "end-to-end", result["correct"],
                result["attempted"], result["failed"],
                result["failed"] / max(1, result["attempted"])))
            for metric, v in result["metrics"].items():
                print("  %-28s %16.6g %s" % (metric, v["value"], v["unit"]))
    sys.exit(worst)


if __name__ == "__main__":
    main()

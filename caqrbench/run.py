#!/usr/bin/env python3
"""CaQR benchmark runner.

Builds caqrbench/main.exe from the sources of the checkout it runs in
(dune, no shared cache, build directory inside the checkout), then runs
one workload and relays its report. The last line of standard output is
the JSON result.

    python3 caqrbench/run.py --workload table1-engines --seed 1 --seconds 20 --trace 0
    python3 caqrbench/run.py --self-check

Exit status: the workload's (0 all outputs correct, 1 some output failed
its check), or 2 when the benchmark cannot be built or run here.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = "_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "caqrbench", "main.exe")
WORKLOADS = ["table1-engines", "large-qs", "serve-mix"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(msg):
    print("caqrbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_child(cmd, timeout, **kw):
    """Run cmd to completion; on timeout kill it and wait for it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("%s timed out after %d s" % (os.path.basename(cmd[0]), timeout))
    return proc.returncode, out


def build():
    for need in ("dune-project", "lib", os.path.join("caqrbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s in %s: run from a checkout of the repository" % (need, ROOT))
    if shutil.which("dune") is None:
        fail("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run_child(
        ["dune", "build", "--root", ROOT, "--display", "quiet",
         "./caqrbench/main.exe"],
        BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0 or not os.path.exists(EXE):
        fail("build failed (dune exit %d)" % code)


def host_args():
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 0
    commit = "unknown"
    try:
        res = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if res.returncode == 0 and res.stdout.strip():
            commit = res.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return ["--nproc", str(nproc), "--commit", commit]


def run_workload(args, capture=False):
    cmd = [EXE] + args + host_args()
    if capture:
        code, out = run_child(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
        return code, out
    code, _ = run_child(cmd, RUN_TIMEOUT_S)
    return code, None


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def self_check():
    """Each workload at reduced size emits every named metric with its
    unit; a second, held-out seed gives the same metric set with zero
    failures; a corrupted golden copy is counted as a failure."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expect = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def check(label, args, want_fail=False):
        code, out = run_workload(args, capture=True)
        res = last_json(out)
        trace = int(args[args.index("--trace") + 1])
        if res is None:
            problems.append("%s: no result line (exit %d)" % (label, code))
            return
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if got != expect[trace]:
            problems.append("%s: metrics %s, expected %s" % (label, sorted(got), sorted(expect[trace])))
        if want_fail:
            if code == 0 or res["failed"] < 1 or res["correct"]:
                problems.append("%s: corruption not counted (exit %d, failed %d)"
                                % (label, code, res["failed"]))
        elif code != 0 or res["failed"] != 0 or not res["correct"]:
            problems.append("%s: exit %d, failed %d" % (label, code, res["failed"]))
        print("self-check %-40s exit=%d attempted=%d failed=%d"
              % (label, code, res["attempted"], res["failed"]), flush=True)

    small = {"table1-engines": [], "large-qs": ["--small"], "serve-mix": []}
    for w in WORKLOADS:
        for trace in (0, 1):
            check("%s trace=%d" % (w, trace),
                  ["--workload", w, "--seed", "11", "--seconds", "1",
                   "--trace", str(trace)] + small[w])
    check("serve-mix held-out seed",
          ["--workload", "serve-mix", "--seed", "90210", "--seconds", "1", "--trace", "0"])

    scratch = os.path.join(ROOT, ".bench_build", "selfcheck-golden")
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "test", "golden"), scratch)
    with open(os.path.join(scratch, "XOR_5.sr.qasm"), "a") as f:
        f.write("// corrupted\n")
    check("table1-engines corrupted golden",
          ["--workload", "table1-engines", "--seed", "11", "--seconds", "1",
           "--trace", "0", "--golden-dir", scratch], want_fail=True)
    shutil.rmtree(scratch, ignore_errors=True)

    if problems:
        for p in problems:
            print("self-check FAILED: " + p, flush=True)
        return 1
    print("self-check: ok", flush=True)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and args.workload is None:
        ap.error("--workload or --self-check is required")
    build()
    if args.self_check:
        sys.exit(self_check())
    code, _ = run_workload(["--workload", args.workload, "--seed", str(args.seed),
                            "--seconds", repr(args.seconds), "--trace", str(args.trace)])
    sys.exit(code)


if __name__ == "__main__":
    main()

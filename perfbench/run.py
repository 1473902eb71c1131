#!/usr/bin/env python3
"""Build and run the vpo-mac benchmark.

    python3 perfbench/run.py --workload tables|compile|service --seed N \\
        --seconds S --trace 0|1

Builds perfbench/ (the library sources in src/, the vpod daemon and the
benchmark binary) into .bench_build/perfbench, or into $CARGO_TARGET_DIR
when that is set, then runs one workload. The last line of stdout is one
JSON object: correct, attempted, failed and metrics (end-to-end metrics
with --trace 0, per-layer metrics with --trace 1). The exit code is 0 only
when every op passed its check.

Two self-checks, not run by the plain command:

    python3 perfbench/run.py --self-test
        builds and runs the statistics test (stats_test.cpp).
    python3 perfbench/run.py --check-determinism [--workload W] [--seed N]
        runs each workload twice, at two thread counts, once traced and
        once untraced, and fails if any deterministic metric differs.

Build logs and the daemon's log go to stderr or the output directory, never
to stdout.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tables", "compile", "service")
RUN_TIMEOUT_S = 170


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build():
    """Configures (once) and builds; returns the build directory or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources at %s/src; run from a full "
              "checkout" % ROOT, file=sys.stderr)
        return None
    bdir = os.path.join(build_root(), "perfbench")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        r = subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                            "-DCMAKE_BUILD_TYPE=Release"] + gen,
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            return None
    r = subprocess.run(["cmake", "--build", bdir, "-j", "4"],
                       stdout=sys.stderr, stderr=sys.stderr)
    return bdir if r.returncode == 0 else None


def out_dir():
    d = os.path.join(build_root(), "perfbench-out")
    os.makedirs(d, exist_ok=True)
    return d


def run_bench(bdir, workload, seed, seconds, trace, threads=None,
              capture=False):
    cmd = [os.path.join(bdir, "vpo_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--repo-root", ROOT,
           "--out-dir", out_dir()]
    if threads:
        cmd += ["--threads", str(threads)]
    # Own process group, so a timeout also stops the daemon and workers
    # the service workload starts.
    p = subprocess.Popen(cmd, text=True, start_new_session=True,
                         stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1, ""
    return p.returncode, out or ""


def deterministic_line(text):
    for line in text.splitlines():
        if line.startswith("DETERMINISTIC "):
            return line[len("DETERMINISTIC "):]
    return None


def check_determinism(bdir, workloads, seed):
    # (threads, trace) pairs: the workload's default count untraced, then
    # one thread (one daemon worker for service) traced.
    ok = True
    for w in workloads:
        lines = []
        for threads, trace in ((2, 0), (1, 1)):
            code, text = run_bench(bdir, w, seed, 2, trace, threads,
                                   capture=True)
            line = deterministic_line(text)
            if code != 0 or line is None:
                print("%s: run with threads=%d trace=%d failed" %
                      (w, threads, trace))
                ok = False
                break
            lines.append(line)
        if len(lines) == 2:
            same = lines[0] == lines[1]
            ok &= same
            print("%s seed %d: deterministic metrics %s" %
                  (w, seed, "identical" if same else "DIFFER"))
            if not same:
                print("  threads=2 untraced: " + lines[0])
                print("  threads=1 traced:   " + lines[1])
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--check-determinism", action="store_true")
    a = p.parse_args()
    if not (a.self_test or a.check_determinism or a.workload):
        p.error("--workload is required")

    bdir = build()
    if bdir is None:
        return 1
    if a.self_test:
        return subprocess.run(
            [os.path.join(bdir, "perfbench_stats_test")]).returncode
    if a.check_determinism:
        return check_determinism(
            bdir, [a.workload] if a.workload else WORKLOADS, a.seed)
    code, _ = run_bench(bdir, a.workload, a.seed, a.seconds, a.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the program from source and runs one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fleet-small --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. The workloads and their knobs
are defined in cpp/workload.cpp (perfbench/spec.json documents them). A
detailed result file per run, carrying the host description, goes to
.bench_results/; the traced run also writes its Chrome trace there.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources (src/) not found in the current directory; "
             "run from the root of a checkout")
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or (os.path.realpath(home[0].split("=", 1)[1].strip())
                        != os.path.realpath(BENCH_DIR)):
            shutil.rmtree(out)  # configured for another checkout
    if not os.path.isfile(cache):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        r = subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release", *gen],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("cmake configure failed")
    r = subprocess.run(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                        "--target", "ispb_perfbench"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(out, "ispb_perfbench")


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, stdout text)."""
    results = os.path.join(ROOT, ".bench_results")
    os.makedirs(results, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    work = os.path.join(build_dir(), f"work-{os.getpid()}")
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}", f"--work-dir={work}",
           f"--results={os.path.join(results, stem + '.json')}", *extra]
    if trace:
        cmd.append(f"--trace-out={os.path.join(results, stem + '.trace.json')}")
    # The JIT's compiler writes its temporaries under TMPDIR: keep them in
    # the checkout.
    env = dict(os.environ, TMPDIR=tmp)
    # Own process group, so a timeout also stops the JIT's compiler
    # processes, and every one has ended before this returns.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, out


def last_json(text):
    lines = [l for l in text.strip().splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def selftest(binary):
    """The output check must catch one flipped output bit."""
    code, out = run_binary(binary, "fleet-small", 1, 1, 0,
                           ["--corrupt-one", "--setup-repeats=1"])
    bad = last_json(out)
    caught = (code != 0 and bad is not None and bad["correct"] is False
              and bad["failed"] >= 1)
    code2, out2 = run_binary(binary, "fleet-small", 1, 1, 0,
                             ["--setup-repeats=1"])
    good = last_json(out2)
    clean = code2 == 0 and good is not None and good["correct"] is True \
        and good["failed"] == 0
    print(json.dumps({"flipped_bit_caught": caught, "clean_run_passes": clean}))
    return 0 if caught and clean else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        fail("--workload is required")
    binary = build()
    if args.selftest:
        sys.exit(selftest(binary))
    code, out = run_binary(binary, args.workload, args.seed, args.seconds,
                           args.trace)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()

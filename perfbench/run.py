#!/usr/bin/env python3
"""Build and run the scamv benchmark on one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload refined-a-j1 --seed 7 --seconds 20 --trace 0

The benchmark executable is built from the checkout's sources with dune
into .bench_build/ (the dune cache is disabled, so nothing is written
outside the checkout), then run with a scratch directory under
.bench_build/run/ that is removed afterwards.  The last line of standard
output is the JSON result; build output goes to standard error.  Exits
non-zero without a result when the sources are missing or the build or
the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
# A run must end within 180 s of its start; leave room for teardown.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 850


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def build(env):
    dune = shutil.which("dune")
    if dune is None:
        return "dune not found on PATH"
    proc = subprocess.run(
        [dune, "build", "--root", ROOT, "--build-dir", BUILD_DIR,
         "./perfbench/perfbench.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_LIMIT_S)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        return "build failed (dune exit %d)" % proc.returncode
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        return fail("no dune project with lib/ sources at " + ROOT)

    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(BUILD_DIR, "xdg-cache")
    env["TMPDIR"] = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)

    try:
        err = build(env)
    except subprocess.TimeoutExpired:
        err = "build timed out"
    if err:
        return fail(err)

    workdir = os.path.join(BUILD_DIR, "run", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 0
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--nproc", str(nproc), "--workdir", workdir,
           "--reference", os.path.join(HERE, "reference.json")]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if code is None:
        return fail("run exceeded %d s" % RUN_LIMIT_S)
    return code


if __name__ == "__main__":
    sys.exit(main())

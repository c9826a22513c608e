#!/usr/bin/env python3
"""Build and run the hsched benchmark.

    python3 perfbench/run.py --workload analyze_exact --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --regen-reference [--workload NAME]

Run it from the root of a checkout.  The driver in perfbench/_driver is
built with dune in a workspace of its own, next to a copy of the
repository's lib/ tree, under $CARGO_TARGET_DIR (default .bench_build).
The last line of standard output is the run's JSON result; see
perfbench/README.md for the workloads and metrics.
"""

import argparse
import filecmp
import glob
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOADS = ("analyze_exact", "admit_churn", "region_design")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    found = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    if found:
        return found[0]
    fail("dune not found on PATH")


def sync(src, dst, keep=lambda name: True):
    """Mirror the regular files under src into dst, copying only what
    changed so that dune's incremental build stays warm."""
    os.makedirs(dst, exist_ok=True)
    wanted = set()
    for name in os.listdir(src):
        s, d = os.path.join(src, name), os.path.join(dst, name)
        if os.path.isdir(s):
            if not name.startswith(("_", ".")):
                wanted.add(name)
                sync(s, d)
        elif keep(name):
            wanted.add(name)
            if not (os.path.isfile(d) and filecmp.cmp(s, d, shallow=False)):
                shutil.copyfile(s, d)
    for name in os.listdir(dst):
        if name not in wanted:
            p = os.path.join(dst, name)
            shutil.rmtree(p) if os.path.isdir(p) else os.remove(p)


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(build_root, env):
    ws = os.path.join(build_root, "ws")
    os.makedirs(ws, exist_ok=True)
    driver = os.path.join(HERE, "_driver")
    shutil.copyfile(os.path.join(driver, "dune-project"),
                    os.path.join(ws, "dune-project"))
    sync(os.path.join(ROOT, "lib"), os.path.join(ws, "lib"))
    sync(driver, os.path.join(ws, "driver"),
         keep=lambda n: n == "dune" or n.endswith(".ml"))
    cmd = [find_dune(), "build", "--root", ws, "--display", "quiet",
           "./driver/main.exe"]
    try:
        res = subprocess.run(cmd, env=env, stdout=sys.stderr,
                             stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if res.returncode != 0:
        fail("build failed")
    return os.path.join(ws, "_build", "default", "driver", "main.exe")


def run_driver(exe, args, env, timeout):
    try:
        res = subprocess.run([exe] + args, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    return res.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regen-reference", action="store_true",
                    help="rewrite perfbench/reference from the switch-free "
                         "reference configuration")
    a = ap.parse_args()
    if not (os.path.isdir(os.path.join(ROOT, "lib"))
            and os.path.isfile(os.path.join(ROOT, "dune-project"))):
        fail("no lib/ tree or dune-project here: run from the root of a "
             "full checkout")

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    work = os.path.join(build_root, "results")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ)
    # Keep every write inside the checkout: no shared dune cache, and a
    # temporary directory of the run's own.
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(build_root, "cache")
    env["TMPDIR"] = work
    exe = build(build_root, env)

    reference = os.path.join(HERE, "reference")
    if a.regen_reference:
        args = ["--write-reference", reference]
        if a.workload != "all":
            args += ["--workload", a.workload]
        sys.exit(run_driver(exe, args, env, None))

    names = WORKLOADS if a.workload == "all" else (a.workload,)
    code = 0
    for name in names:
        sys.stdout.flush()
        rc = run_driver(exe, [
            "--workload", name, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace),
            "--reference-dir", reference, "--work-dir", work,
            "--git-commit", git_commit(), "--profile", "dev",
        ], env, RUN_TIMEOUT_S)
        code = code or rc
    sys.exit(code)


if __name__ == "__main__":
    main()

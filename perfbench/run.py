#!/usr/bin/env python3
"""Build the library and the perfbench program from source, then run a workload.

    python3 perfbench/run.py --workload synth|stream|serve|all [--seed N] [--seconds S] [--trace 0|1]

Defaults: --seed 1 --seconds 20 --trace 0. `all` runs the three workloads
one after another, each printing its own result line.

Run from the root of a checkout. The build goes to .bench_build/perfbench
(kept between runs, so only the first run compiles). The program's output
is passed through; its last line is the result object. Build output goes to
standard error. Exits non-zero, without a result line, when the sources or
the build are missing or broken.
"""
import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "out"
RUN_TIMEOUT_S = 170
WORKLOADS = ["synth", "stream", "serve"]


def source_id():
    """The git commit when there is one, else a digest of the source tree."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def build():
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(cmd))


def run(workload, args):
    cmd = [str(BUILD / "perfbench"), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", source_id(),
           "--out-dir", str(OUT.relative_to(ROOT))]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("run.py: perfbench did not finish within %d s" % RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: no library sources under " + str(ROOT / "src"))

    build()
    OUT.mkdir(parents=True, exist_ok=True)
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        status = run(workload, args) or status
    return status


if __name__ == "__main__":
    sys.exit(main())

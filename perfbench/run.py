#!/usr/bin/env python3
"""Build and run the ctk benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload kb-cold|kb-regrade|ctkd-mix \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
perfbench/CMakeLists.txt (the ctk library from ../src plus ctkbench)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
calls only rebuild what changed. Each workload runs in its own process
with its own temp dir, removed on exit. The last line of stdout is the
result JSON; a stamp line (hardware threads, compiler, build
type, commit, seed, op counts) precedes it.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no ctk sources next to perfbench/ (expected ../CMakeLists.txt "
             "and ../src)")
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", "3"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries the result only.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def source_sha():
    """The commit, or a digest of the sources when there is no git."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha1:" + digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["kb-cold", "kb-regrade", "ctkd-mix"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build, then run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    bdir = build_dir()
    build(bdir)
    if args.selftest:
        sys.exit(subprocess.run(["ctest", "--test-dir", str(bdir),
                                 "--output-on-failure"],
                                stdout=sys.stderr, check=False).returncode)

    tmp = bdir / "run" / "{}-{}".format(args.workload, os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = [str(bdir / "ctkbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--sha", source_sha(),
           "--tmp", str(tmp)]
    proc = None

    def on_term(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True)
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
        if code in (0, 1):
            sys.stdout.write(out)
            sys.stdout.flush()
        else:
            print("run.py: ctkbench exited with {}".format(code),
                  file=sys.stderr)
        sys.exit(code)
    except subprocess.TimeoutExpired:
        fail("ctkbench overran {} s".format(RUN_TIMEOUT_S), 3)
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()

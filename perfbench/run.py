#!/usr/bin/env python3
"""Repo benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload census|tcad-cold \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the tca libraries, the tcad
daemon and the harness from source into .bench_build/perfbench (the first
run configures and compiles; later runs only check that the build is up
to date), then runs the harness. Build output goes to stderr; the
harness's last stdout line is the result object. Run outputs (per-run
work directories, which are removed, and trace files) go to .bench_out/.
"""

import argparse
import fcntl
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("census", "tcad-cold")
RUN_TIMEOUT_S = 170


def source_id(root: Path) -> str:
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for base in ("src", "perfbench", "CMakeLists.txt", "cmake"):
        p = root / base
        files = [p] if p.is_file() else sorted(p.rglob("*")) if p.is_dir() else []
        for f in files:
            if f.is_file():
                h.update(str(f.relative_to(root)).encode())
                h.update(f.read_bytes())
    return "sha256:" + h.hexdigest()[:16]


def build(root: Path, build_dir: Path) -> Path:
    """Configures (once) and builds the harness; returns its path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B",
                            str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                       check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dump-inputs", action="store_true",
                    help="print the generated inputs and exit")
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no tca source tree next to perfbench/",
              file=sys.stderr)
        return 2
    build_dir = root / ".bench_build" / "perfbench"
    try:
        harness = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [str(harness), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--tcad", str(build_dir / "tca" / "src" / "service" / "tcad"),
           "--out", ".bench_out",
           "--source-id", source_id(root)]
    if args.dump_inputs:
        cmd.append("--dump-inputs")
    sys.stdout.flush()
    # Own process group, so a timeout also takes down spawned daemons.
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())

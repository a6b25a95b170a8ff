#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload oracle-fig6 --seed 1 --seconds 10 --trace 0

Run it from anywhere inside a checkout; it builds perfbench/CMakeLists.txt
(Release, -DNDEBUG) into $CARGO_TARGET_DIR (default .bench_build) at the
checkout root, then runs the perfbench binary. Build output goes to
stderr; the last line of stdout is its JSON result. See
perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Workloads whose units spawn process fleets: the wire harness makes its
# socket directories under /tmp, so they run in a private mount namespace
# with /tmp bound to a directory inside the build tree.
FLEET_WORKLOADS = {"wire-fleet"}
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """Git commit when available, plus a digest of the benchmarked sources
    (a checkout without .git still identifies what it measured)."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(path.relative_to(ROOT).as_posix().encode())
                digest.update(path.read_bytes())
    ident = "tree-sha256:" + digest.hexdigest()[:16]
    git = shutil.which("git")
    if git and (ROOT / ".git").exists():
        head = subprocess.run([git, "-C", str(ROOT), "rev-parse", "--short=12",
                               "HEAD"], capture_output=True, text=True)
        if head.returncode == 0:
            ident = f"git:{head.stdout.strip()} {ident}"
    return ident


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, **quiet)


def in_private_tmp(cmd, tmp_dir):
    """Wraps `cmd` so it sees `tmp_dir` as /tmp, or returns it unchanged
    (with a warning) where mount namespaces are not permitted."""
    unshare = shutil.which("unshare")
    probe = [unshare, "--mount", "true"] if unshare else None
    if probe and subprocess.run(probe, capture_output=True).returncode == 0:
        tmp_dir.mkdir(parents=True, exist_ok=True)
        return [unshare, "--mount", "--", "sh", "-c",
                'mount --bind "$0" /tmp && exec "$@"', str(tmp_dir), *cmd]
    print("perfbench: no mount namespace; fleet sockets go to /tmp",
          file=sys.stderr)
    return cmd


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src").is_dir() or not (ROOT / "tools").is_dir():
        fail(f"no qolsr sources at {ROOT}/src and {ROOT}/tools; run the "
             "benchmark from a full checkout")
    golden = HERE / "golden" / f"{args.workload}.txt"
    if not golden.is_file():
        fail(f"unknown workload '{args.workload}' (no {golden.name})")

    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = [m["name"] for m in
                   declared["per_layer" if args.trace else "end_to_end"]]
    except (OSError, ValueError, KeyError) as error:
        fail(f"cannot read the metric list from BENCHMARK.json: {error}")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")

    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--golden", str(golden),
           "--metrics", ",".join(metrics), "--commit", source_id()]
    if args.trace:
        spans = build_dir / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-{args.seed}.json")]
    env = dict(os.environ,
               QOLSR_NODE_BIN=str(build_dir / "qolsr_node"),
               QOLSR_SWITCH_BIN=str(build_dir / "qolsr_switch"))
    if args.workload in FLEET_WORKLOADS:
        cmd = in_private_tmp(cmd, build_dir / "tmp")
    sys.stdout.flush()
    # Its own process group, so a timeout also reaps any fleet it spawned.
    proc = subprocess.Popen(cmd, env=env, preexec_fn=os.setpgrp)
    try:
        sys.exit(proc.wait(timeout=RUN_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    main()

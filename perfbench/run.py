#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the harness (perfbench/harness) and
`soteria-serve` in release mode, offline, into $CARGO_TARGET_DIR (default
perfbench/harness/target), then runs one workload. Build output goes to
stderr; the harness's stdout passes through, so the last stdout line is its
result object. Exits non-zero without a result line if the build or the run
fails or the run outlives its time limit.
"""

import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "harness", "Cargo.toml")
RUN_LIMIT_S = 170


def target_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    if configured:
        return os.path.abspath(configured)
    return os.path.join(HERE, "harness", "target")


def build():
    command = [
        "cargo", "build", "--offline", "--release", "--quiet",
        "--manifest-path", MANIFEST,
        "-p", "soteria-perfbench", "-p", "soteria-service", "--bins",
    ]
    return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts without git."""
    digest = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "crates", os.path.join("perfbench", "harness")]
    for top in tops:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d != "target")
            files.extend(os.path.join(base, n) for n in sorted(names))
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def rustc_version():
    try:
        out = subprocess.run(["rustc", "-V"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    harness = os.path.join(target_dir(), "release", "soteria-perfbench")
    env = dict(os.environ)
    env["PERFBENCH_GIT_REV"] = git_revision() or "none (source " + source_digest() + ")"
    env["PERFBENCH_RUSTC"] = rustc_version()
    # Its own process group, so a timeout also stops the services it started.
    proc = subprocess.Popen([harness] + sys.argv[1:], env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 1
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # any service a failed run left behind
    except ProcessLookupError:
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Check that the gates catch the seeded bugs of the mutant catalogue.

    python3 tools/mutants.py

Run from inside the repository. Each patch under `tests/mutants/` seeds one
bug, and its header names the tests that must catch it: each `Caught-by:`
line holds the arguments of one `cargo test -q` run.

The script snapshots the tracked files as they stand in the working tree,
committed or not (`git stash create`, which touches neither the working tree
nor the index; untracked files are left out), and checks the snapshot out
into a scratch `git worktree` in a new temp dir. It first runs every named
run on the unpatched snapshot, where each must pass: a run that already
fails could not show a catch. Then, for each patch, it applies the patch,
builds the named runs' targets, and runs them. It prints `caught` when every
named run fails, and `missed` when one passes. It exits non-zero on a miss,
or when a patch does not apply or does not build.

Builds go to one CARGO_TARGET_DIR next to the worktree, so each mutant
rebuilds only the crates its patch touches. The temp dir and the worktree
are removed afterwards.
"""

import glob
import os
import shlex
import shutil
import subprocess
import sys
import tempfile


def git(*args, cwd):
    out = subprocess.run(["git"] + list(args), cwd=cwd, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"mutants: git {' '.join(args)} failed:\n{out.stderr}")
    return out.stdout.strip()


def caught_by(patch):
    """The `cargo test` argument lists a patch's header names."""
    runs = []
    with open(patch) as f:
        for line in f:
            if line.startswith("--- ") or line.startswith("diff "):
                break
            if line.startswith("Caught-by:"):
                runs.append(shlex.split(line[len("Caught-by:"):]))
    if not runs:
        raise SystemExit(f"mutants: {patch} names no Caught-by run")
    return runs


def cargo_test(tree, env, args, no_run=False):
    """True when `cargo test -q [--no-run] args` succeeds in `tree`."""
    command = ["cargo", "test", "-q"] + (["--no-run"] if no_run else []) + args
    out = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    return out.returncode == 0, out.stderr


def main():
    repo = git("rev-parse", "--show-toplevel", cwd=os.getcwd())
    snapshot = git("stash", "create", cwd=repo) or git("rev-parse", "HEAD", cwd=repo)
    patches = sorted(glob.glob(os.path.join(repo, "tests", "mutants", "*.patch")))
    if not patches:
        raise SystemExit("mutants: no patches")
    catalogue = [(p, caught_by(p)) for p in patches]

    work = tempfile.mkdtemp(prefix="mutants.")
    tree = os.path.join(work, "tree")
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(work, "target"))
    git("worktree", "add", "-q", "--detach", tree, snapshot, cwd=repo)
    failures = 0
    try:
        clean_runs = []
        for _, runs in catalogue:
            clean_runs.extend(r for r in runs if r not in clean_runs)
        for run in clean_runs:
            passed, stderr = cargo_test(tree, env, run)
            if not passed:
                sys.stderr.write(stderr)
                raise SystemExit(f"mutants: `cargo test -q {shlex.join(run)}` fails unpatched")

        for patch, runs in catalogue:
            name = os.path.splitext(os.path.basename(patch))[0]
            applied = subprocess.run(["git", "apply", patch], cwd=tree,
                                     capture_output=True, text=True)
            try:
                if applied.returncode != 0:
                    print(f"{name}: does not apply\n{applied.stderr}", flush=True)
                    failures += 1
                    continue
                built = [cargo_test(tree, env, run, no_run=True) for run in runs]
                broken = [stderr for ok, stderr in built if not ok]
                if broken:
                    print(f"{name}: does not build\n{broken[0]}", flush=True)
                    failures += 1
                    continue
                verdicts = []
                for run in runs:
                    passed, _ = cargo_test(tree, env, run)
                    verdicts.append(not passed)
                    print(f"  {name}: `cargo test -q {shlex.join(run)}` "
                          f"{'fails' if not passed else 'passes'}", flush=True)
                if all(verdicts):
                    print(f"{name}: caught", flush=True)
                else:
                    print(f"{name}: missed", flush=True)
                    failures += 1
            finally:
                git("reset", "-q", "--hard", cwd=tree)
    finally:
        git("worktree", "remove", "--force", tree, cwd=repo)
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(catalogue) - failures} of {len(catalogue)} mutants caught")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two revisions on one benchmark workload in alternating pairs.

    python3 tools/bench_pairs.py --base <rev> --change <rev> --workload <name>
        [--pairs N] [--seconds S] [--seed N] [--work-dir DIR]

Run from inside the repository. Copies each revision with `git archive` into
sibling directories whose paths have equal length (`<work>/base`,
`<work>/chan`), so absolute paths embedded in the binaries cannot shift code
layout between the sides. Runs `perfbench/run.py` on both, alternating which
side goes first, with one seed per pair (`--seed`, `--seed + 1`, ...); each
side's first run builds it into its own CARGO_TARGET_DIR (inside its copy),
and later runs find the build up to date. The copies go to a new temp dir,
removed afterwards, or to `--work-dir`, kept and reused for the same
revisions.

Prints `nproc`, after the first pair each side's `core::str::from_utf8`
address mod 64 (0 puts `JsonValue::parse`'s hot loop across a cache line;
see the verify skill), then per end-to-end metric each side's median and
interquartile range, the change/base ratio of the medians, the pairs the
change won and a verdict against the metric's `better` and `bound` in
`BENCHMARK.json` (see `verdict`). `restart_ms_p50` is flagged layout-suspect
when the two builds put `from_utf8` at different addresses mod 64: that
metric follows the alignment, not the code. The last line is the same
summary as one JSON object. `--base HEAD --change HEAD` measures the noise
floor of the tree against itself.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

SIDES = ("base", "chan")  # equal-length directory names


def git(*args, cwd=None):
    out = subprocess.run(["git"] + list(args), cwd=cwd, capture_output=True, check=True)
    return out.stdout


def extract(repo, rev, dest):
    """Copies `rev` to `dest`; a copy of the same revision already there is kept."""
    marker = os.path.join(dest, ".bench_pairs_rev")
    if os.path.isdir(dest):
        if open(marker).read() != rev:
            raise SystemExit(f"bench_pairs: {dest} holds another revision")
        return
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", rev], cwd=repo, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"bench_pairs: git archive {rev} failed")
    with open(marker, "w") as f:
        f.write(rev)


def from_utf8_mod64(binary):
    """`core::str::from_utf8`'s address mod 64, or None without `nm`."""
    try:
        out = subprocess.run(["nm", binary], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    for line in out.stdout.splitlines():
        if line.endswith("converts9from_utf8"):
            return int(line.split()[0], 16) % 64
    return None


def run_once(checkout, env, workload, seed, seconds):
    command = [
        sys.executable, os.path.join(checkout, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"bench_pairs: run failed in {checkout} (seed {seed})")
    result = json.loads(lines[-1])
    return result, {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def spread(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def relative(delta, median):
    """`delta` as a fraction of `median`; a nonzero delta from 0 is infinite."""
    if median:
        return delta / abs(median)
    return 0.0 if delta == 0 else float("inf")


def verdict(b, c, bq, cq, lower, bound):
    """`worse` or `better` when the change median differs from the base median
    by more than `bound` (relative); otherwise `unresolved` when the base runs'
    own IQR exceeds the bound, unless every change run beats every base run;
    otherwise `unchanged`. `no bound` for a metric BENCHMARK.json gives none."""
    if bound is None:
        return "no bound"
    gain = relative(bq[1] - cq[1] if lower else cq[1] - bq[1], bq[1])
    if gain > bound:
        return "better"
    if gain < -bound:
        return "worse"
    beats_all = max(c) < min(b) if lower else min(c) > max(b)
    if relative(bq[2] - bq[0], bq[1]) > bound and not beats_all:
        return "unresolved"
    return "unchanged"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--work-dir", help="where the copies go, kept and reused for the "
                        "same revisions (default: a new temp dir)")
    args = parser.parse_args()

    repo = git("rev-parse", "--show-toplevel").decode().strip()
    revs = [git("rev-parse", "--verify", r + "^{commit}", cwd=repo).decode().strip()
            for r in (args.base, args.change)]
    work = os.path.abspath(args.work_dir or tempfile.mkdtemp(prefix="bench_pairs."))
    bench = json.load(open(os.path.join(repo, "BENCHMARK.json")))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    try:
        sides = []
        for side, rev in zip(SIDES, revs):
            checkout = os.path.join(work, side)
            extract(repo, rev, checkout)
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, "target"))
            sides.append({"rev": rev, "checkout": checkout, "env": env, "runs": []})
        nproc = len(os.sched_getaffinity(0))  # what `nproc` prints
        print(f"nproc {nproc}")

        for pair in range(args.pairs):
            seed = args.seed + pair
            order = sides if pair % 2 == 0 else sides[::-1]
            for side in order:
                result, metrics = run_once(side["checkout"], side["env"], args.workload,
                                           seed, args.seconds)
                side["runs"].append({"seed": seed, "correct": result["correct"],
                                     "failed": result["failed"], "metrics": metrics})
            if pair == 0:
                for side in sides:
                    binary = os.path.join(side["env"]["CARGO_TARGET_DIR"], "release",
                                          "soteria-perfbench")
                    side["from_utf8_mod64"] = from_utf8_mod64(binary)
                    print(f"{side['rev'][:12]} in {side['checkout']}: "
                          f"from_utf8 mod 64 = {side['from_utf8_mod64']}", flush=True)

        base, chan = sides
        layout_differs = base["from_utf8_mod64"] != chan["from_utf8_mod64"]
        names = [n for n in base["runs"][0]["metrics"] if n in chan["runs"][0]["metrics"]]
        summary = {}
        print(f"{'metric':<18} {'base median [q1, q3]':>30} {'change median [q1, q3]':>30}"
              f" {'ratio':>7} {'won':>6}  verdict")
        for name in names:
            b = [r["metrics"][name] for r in base["runs"]]
            c = [r["metrics"][name] for r in chan["runs"]]
            bq, cq = quartiles(b), quartiles(c)
            lower = better.get(name, "lower") == "lower"
            won = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
            ratio = cq[1] / bq[1] if bq[1] else None
            judged = verdict(b, c, bq, cq, lower, bounds.get(name))
            suspect = name == "restart_ms_p50" and layout_differs
            summary[name] = {"base": {"median": bq[1], "q1": bq[0], "q3": bq[2], "runs": b},
                             "change": {"median": cq[1], "q1": cq[0], "q3": cq[2], "runs": c},
                             "ratio": ratio, "won": won, "pairs": len(b),
                             "verdict": judged, "layout_suspect": suspect}
            ratio_text = f"{ratio:.3f}" if ratio is not None else "-"
            flag = " (layout-suspect: from_utf8 mod 64 differs)" if suspect else ""
            print(f"{name:<18} {spread(bq):>30} {spread(cq):>30} {ratio_text:>7}"
                  f" {won:>3}/{len(b)}  {judged}{flag}")
        failed = sum(r["failed"] for s in sides for r in s["runs"])
        correct = all(r["correct"] for s in sides for r in s["runs"])
        print(json.dumps({
            "workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
            "nproc": nproc, "correct": correct, "failed": failed,
            "sides": [{"rev": s["rev"], "from_utf8_mod64": s["from_utf8_mod64"]} for s in sides],
            "metrics": summary,
        }, sort_keys=True))
        return 0 if correct and failed == 0 else 1
    finally:
        if not args.work_dir:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

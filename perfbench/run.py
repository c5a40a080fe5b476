#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source, runs one workload.

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--out RESULTS.jsonl] [--tiny]
  python3 perfbench/run.py compare PARENT.jsonl CHANGE.jsonl

The build goes to $CARGO_TARGET_DIR, or .bench_build when it is unset.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; --out also appends the full record (host
facts, seed, per-graph rows) to a JSON-lines file that `compare` reads.
"""

import argparse
import ctypes
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175
ADDR_NO_RANDOMIZE = 0x0040000  # <linux/personality.h>
MAX_STEAL = 0.05  # share of a run's CPU time; compare leaves out runs above


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            sys.exit(1)
    return os.path.join(out, "perfbench")


def fixed_address_space():
    """Disables address-space randomization for the benchmark process.

    On a 4-core host the service_hot p50 ranges from ~65 to ~90 us across
    random layouts of one binary, more than any bound; with a fixed layout
    runs agree within ~2%. Where the kernel refuses, the run goes on with
    randomization, and the record says so (host.aslr).
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xffffffff)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def run_binary(cmd, work_dir, timeout):
    """Runs the binary once; the completed process, or None on timeout."""
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout,
                              preexec_fn=fixed_address_space)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {timeout:.0f} s")
        return None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run(args):
    binary = build()
    # Relative, so Unix socket paths stay short wherever the checkout is.
    work_dir = os.path.relpath(os.path.join(build_dir(), "run"))
    spans = os.path.join(build_dir(), f"spans-{args.workload}.json")
    # Fixed-width arguments: with a fixed address space, the initial stack
    # (and so every stack address) then moves only with the workload name.
    cmd = [binary, "--workload", args.workload, "--seed", f"{args.seed:020d}",
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--spans", spans]
    if args.tiny:
        cmd.append("--tiny")
    done = run_binary(cmd, work_dir, RUN_TIMEOUT_S)
    if done is None:
        return 1
    lines = done.stdout.splitlines()
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
        record = json.loads(next(l for l in reversed(lines)
                                 if l.startswith("record: "))[8:])
    except (IndexError, StopIteration, ValueError):
        log(f"no result line (exit code {done.returncode})")
        return done.returncode or 1
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"record": record, "result": result}) + "\n")
    return done.returncode


# ------------------------------------------------------------------ compare

def load_results(path):
    """workload -> list of result dicts, in file order (untraced only).

    Runs that lost more than MAX_STEAL of their CPU time to other guests
    (host.steal_frac) read slower for reasons outside the program; they
    are named and left out, and should be run again.
    """
    by_workload = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            row = json.loads(line)
            record = row["record"]
            if record["trace"]:
                continue
            steal = record["host"].get("steal_frac", 0.0)
            if steal > MAX_STEAL:
                print(f"{path}: {record['workload']} seed {record['seed']} "
                      f"left out: {steal:.1%} of its CPU time was stolen")
                continue
            by_workload.setdefault(record["workload"], []).append(row)
    return by_workload


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(parent_path, change_path):
    """Per workload and end-to-end metric: medians, quartiles, pairs won
    (choosing-metrics section 8) and a verdict against the metric's bound."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = load_results(parent_path), load_results(change_path)
    status = 0
    for workload in sorted(set(parent) | set(change)):
        p_rows, c_rows = parent.get(workload, []), change.get(workload, [])
        print(f"\n{workload}: {len(p_rows)} parent run(s), "
              f"{len(c_rows)} change run(s)")
        if not p_rows or not c_rows:
            print("  missing on one side; nothing to compare")
            status = 1
            continue
        for rows in (p_rows, c_rows):
            if any(not r["result"]["correct"] for r in rows):
                print("  a run failed its correctness gates")
                status = 1
        print(f"  {'metric':<14} {'parent q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'won':>6}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            p = [r["result"]["metrics"][name]["value"] for r in p_rows]
            c = [r["result"]["metrics"][name]["value"] for r in c_rows]
            pq, cq = quartiles(p), quartiles(c)
            pairs = list(zip(p, c))
            wins = sum(1 for a, b in pairs if (b < a if lower else b > a))
            won = wins / len(pairs)
            spread = max((pq[2] - pq[0]) / pq[1] if pq[1] else 0.0,
                         (cq[2] - cq[0]) / cq[1] if cq[1] else 0.0)
            worse = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
            if not lower:
                worse = -worse
            all_better = (max(c) < min(p)) if lower else (min(c) > max(p))
            if won >= 0.9 and abs(cq[1] - pq[1]) > pq[2] - pq[0]:
                verdict = "better"
            elif spread > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSED"
                status = 1
            else:
                verdict = "within bound"
            fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
            print(f"  {name:<14} {fmt(pq):>32} {fmt(cq):>32} "
                  f"{won:>6.2f}  {verdict} (bound {bound}, spread "
                  f"{spread:.3f})")
        for rows, side in ((p_rows, "parent"), (c_rows, "change")):
            words = {r["result"]["metrics"]["shared_words"]["value"]
                     for r in rows}
            if len(words) > 1:
                print(f"  {side}: shared_words differs across seeds: {words}")
                status = 1
    return status


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            log("usage: run.py compare PARENT.jsonl CHANGE.jsonl")
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["compile_scaled", "service_hot",
                                 "service_mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--out", help="append the full record to this file")
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the smoke check")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Self-tests of the benchmark of record.

    python3 perfbench/selftest.py [--workload NAME] [--seed N]

Run it from the root of a checkout. It checks that

  * bad arguments (unknown workload, non-positive --seconds, a --trace
    other than 0/1, unknown or missing flags) exit non-zero without a
    result line;
  * the deterministic counters repeat exactly for a fixed seed: the
    allocation and outcome metrics of two --trace 0 runs, and every count
    of two --trace 1 runs (times, and GC counts that depend on when the
    collector runs, are left out).

The default is the held-out seed 2 on sibench-scan. Exits 1 on a failure.
"""

import argparse
import json
import subprocess
import sys

RUN = [sys.executable, "perfbench/run.py"]

# Per-layer metrics that are times or depend on GC timing.
NOT_EXACT = ("us_per_txn", "_ns", "ns_per_record", "_ms", "_pct", "promoted_kwords_per_txn", "major_collections")


def run(args):
    proc = subprocess.run(RUN + args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result, proc.stderr


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", default="sibench-scan")
    ap.add_argument("--seed", default="2")
    opts = ap.parse_args()
    w, seed = opts.workload, opts.seed
    failures = []

    bad = [
        ["--workload", "no-such-workload", "--seed", seed, "--seconds", "1", "--trace", "0"],
        ["--workload", w, "--seed", seed, "--seconds", "0", "--trace", "0"],
        ["--workload", w, "--seed", seed, "--seconds", "-3", "--trace", "0"],
        ["--workload", w, "--seed", seed, "--seconds", "1", "--trace", "2"],
        ["--workload", w, "--seed", "x", "--seconds", "1", "--trace", "0"],
        ["--workload", w, "--seed", seed, "--seconds", "1"],
        ["--workload", w, "--seed", seed, "--seconds", "1", "--trace", "0", "--rounds", "3"],
    ]
    for args in bad:
        code, result, _ = run(args)
        if code == 0 or result is not None:
            failures.append(f"accepted bad arguments {args} (exit {code})")

    def exact(result, trace):
        if trace:
            return {k: v["value"] for k, v in result["metrics"].items() if not k.endswith(NOT_EXACT)}
        keep = ("_kwords_per_txn", "success_share")
        return {k: v["value"] for k, v in result["metrics"].items() if k.endswith(keep)}

    for trace in ("0", "1"):
        got = []
        for _ in range(2):
            code, result, err = run(["--workload", w, "--seed", seed, "--seconds", "1", "--trace", trace])
            if code != 0 or result is None or not result["correct"]:
                failures.append(f"--trace {trace} run failed (exit {code}): {err.strip()[-500:]}")
                break
            got.append(exact(result, trace == "1"))
        if len(got) == 2:
            for k in sorted(set(got[0]) | set(got[1])):
                if got[0].get(k) != got[1].get(k):
                    failures.append(f"--trace {trace}: {k} differs: {got[0].get(k)} vs {got[1].get(k)}")
            print(f"--trace {trace}: {len(got[0])} deterministic values compared")

    for f in failures:
        print("FAIL", f)
    print("selftest:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run every verification suite at full size and print a verdict table."""
import argparse
import sys
import time

from pursuitwidth.cli import DEFAULT_SEED, SUITE_OPTIONS, SUITES


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    all_ok = True
    print(f"{'suite':<10} {'verdict':<8} {'seconds':>8}  checks")
    for name, suite in SUITES.items():
        seed = {"seed": args.seed} if "seed" in SUITE_OPTIONS[name] else {}
        t0 = time.time()
        rep = suite(jobs=args.jobs, **seed)
        dt = time.time() - t0
        all_ok &= rep.passed
        detail = ", ".join(f"{c.name}={'ok' if c.passed else 'FAIL'}"
                           for c in rep.checks)
        print(f"{name:<10} {'PASS' if rep.passed else 'FAIL':<8} {dt:>8.1f}  {detail}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())

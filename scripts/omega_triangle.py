#!/usr/bin/env python3
"""Tabulate the loop parameters omega_k along three independent routes —
trace extraction from the parabolic representation, the level-two
recursion, and the closed form for w_1 — and display them side by side.

Usage:
    python3 scripts/omega_triangle.py --m 2 --n 2 --delta 0 --kmax 8
    python3 scripts/omega_triangle.py --scan --kmax 6
"""

import argparse
import sys

from wbcat.cyclotomic import make_params, w1_closed_form
from wbcat.glrep import GlContext, extract_omega


def triangle_rows(m: int, n: int, delta: int, kmax: int):
    ctx = GlContext.parabolic(m, n, delta)
    p = make_params(m, n, delta)
    for k in range(kmax + 1):
        yield k, extract_omega(ctx, k), p.omega(k), w1_closed_form(p, k)


def show(m: int, n: int, delta: int, kmax: int) -> bool:
    print(f"m={m} n={n} delta={delta}")
    print(f"{'k':>3} {'representation':>16} {'recursion':>16} {'closed form':>16}")
    ok = True
    for k, rep, rec, closed in triangle_rows(m, n, delta, kmax):
        mark = "" if rep == rec == closed else "   <-- MISMATCH"
        ok = ok and not mark
        print(f"{k:>3} {str(rep):>16} {str(rec):>16} {str(closed):>16}{mark}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, default=2)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--delta", type=int, default=0)
    ap.add_argument("--kmax", type=int, default=8)
    ap.add_argument("--scan", action="store_true",
                    help="sweep (m,n) in {2,3}^2 and delta in {-1,0,1}")
    args = ap.parse_args(argv)
    ok = True
    if args.scan:
        for m in (2, 3):
            for n in (2, 3):
                for delta in (-1, 0, 1):
                    if delta in (m, n):
                        continue
                    ok = show(m, n, delta, args.kmax) and ok
                    print()
    else:
        ok = show(args.m, args.n, args.delta, args.kmax)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

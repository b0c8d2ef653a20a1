#!/usr/bin/env python3
"""Scan endomorphism-algebra dimensions over all orientation sequences up
to a given length, report regular-monomial counts against the expected
2^k k!, and optionally cross-check each dimension with the representation
rank.

Usage:
    python3 scripts/dimension_scan.py --kmax 4
    python3 scripts/dimension_scan.py --kmax 4 --check-rank --m 4 --n 4
"""

import argparse
import math
import sys
import time
from itertools import product

from wbcat.cyclotomic import basis, make_params
from wbcat.glrep import faithfulness_rank


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, default=4)
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--delta", type=int, default=0)
    ap.add_argument("--kmax", type=int, default=4)
    ap.add_argument("--check-rank", action="store_true",
                    help="also compute the representation rank "
                         "(about 1.5-4 s per ordering at k = 4)")
    args = ap.parse_args(argv)
    p = make_params(args.m, args.n, args.delta)
    ok = True
    for k in range(1, args.kmax + 1):
        expected = 2**k * math.factorial(k)
        for A in product((1, -1), repeat=k):
            t0 = time.monotonic()
            d = len(basis(A, p))
            line = f"A={A!s:<18} dim={d:>5} expected={expected:>5}"
            if d != expected:
                line += "   <-- MISMATCH"
                ok = False
            if args.check_rank:
                r = faithfulness_rank(A, p)
                line += f" rank={r:>5}"
                if r != d:
                    line += "   <-- RANK GAP"
                    ok = False
            line += f"   ({time.monotonic() - t0:.2f}s)"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

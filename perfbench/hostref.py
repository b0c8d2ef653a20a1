"""Host reference: a fixed pure-Python computation that imports nothing from wbcat.

    python3 perfbench/hostref.py    # prints the seconds REPEATS probes took

`probe()` ranks a fixed sparse matrix over Fraction (dict rows, as
`wbcat.exact.sparse_rank` does) with the garbage collector paused and
returns the seconds it took. No change to the package can move it; it is
the kind of work wbcat does, so it slows down with the host in the same
way. worker.py samples it all through each timed session, in the worker's
own process, and run.py scales the session's times by NOMINAL_S / the mean
sample.
"""

import gc
import random
import time
from fractions import Fraction

REPEATS = 40
# probe()'s time on a 2-vCPU sandbox VM when the host runs at its usual speed
NOMINAL_S = 0.014


def _matrix(rows=32, cols=48, per_row=6, seed=20130510):
    rng = random.Random(seed)
    return [{rng.randrange(cols): Fraction(rng.randrange(1, 10), rng.randrange(1, 4))
             for _ in range(per_row)} for _ in range(rows)]


MATRIX = _matrix()


def rank(rows):
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            key = min(row)
            if key not in pivots:
                c = row[key]
                pivots[key] = {k: v / c for k, v in row.items()}
                break
            c = row[key]
            for k, v in pivots[key].items():
                w = row.get(k, 0) - c * v
                if w:
                    row[k] = w
                else:
                    row.pop(k, None)
    return len(pivots)


def probe():
    """Seconds one rank of MATRIX takes, with the garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    rank(MATRIX)
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


if __name__ == "__main__":
    print(sum(probe() for _ in range(REPEATS)))

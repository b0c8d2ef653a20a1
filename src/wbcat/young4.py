"""Strip-diagram weight combinatorics and the box-content spectral calculus.

A column-profile diagram packs boxes into a width-(m+n) strip around a
horizontal axis: column i carries b_i boxes above the axis when b_i > 0 and
-b_i boxes below it when b_i < 0.  A profile is admissible when it is weakly
decreasing within the first m columns and within the last n columns — no
column ever carries boxes on both sides.  Admissible profiles are exactly the
blockwise-dominant integral weights b_i = <lambda, eps_i> of gl_{m+n}.

Contents are shifted uniformly per side of the axis (i is the global column
index, 1-based):

    box above the axis, height h:  h - i + (m+n)/2
    box below the axis, depth d:   d + i - 1 - (m+n)/2

A walk for an orientation sequence A starts at the profile of
(-delta, ..., -delta, 0, ..., 0) and performs one step per entry of A:
a +1 entry adds a box above or removes a box below (the weight moves by
+eps_i), a -1 entry adds below or removes above (-eps_i).  Additions carry
sign eta = +1, removals eta = -1, and the walk's spectral tuple lists
eta * content per step: these are the joint generalized (y_1, ..., y_{r+t})
eigenvalues on the corresponding section of the induced-module filtration
of M tensor V^A.

The walk count is NOT 2^{r+t}(r+t)! for r+t >= 2 (that figure equals the
endomorphism-algebra dimension, i.e. the sum of squared section
multiplicities); actual counts at full strip width are 2, 6, 20 for
r+t = 1, 2, 3.

Also provides Gelfand-Tsetlin weight-multiplicity counting, used to convert
walk endpoints into per-weight dimension predictions for the oracle
cross-checks.
"""

from fractions import Fraction
from functools import lru_cache

from .diagrams import orseq

# boxes() mode -> (slot of the step, action of the step)
_MODES = {
    "addable_above": (1, "add_above"),
    "removable_below": (1, "remove_below"),
    "addable_below": (-1, "add_below"),
    "removable_above": (-1, "remove_above"),
}


def _profile_violation(b, m, n):
    """None if admissible, else a human-readable reason."""
    for lo, hi, side in ((0, m, "first block"), (m, m + n, "second block")):
        for i in range(lo, hi - 1):
            if b[i] < b[i + 1]:
                return f"{side} columns {i + 1},{i + 2} not weakly decreasing"
    return None


def _keeps_admissible(b, k, new, m, n) -> bool:
    """True iff the admissible profile b stays admissible with column k
    (0-based) set to new: only k's neighbours in its block can break it."""
    lo, hi = (0, m) if k < m else (m, m + n)
    return (k == lo or b[k - 1] >= new) and (k + 1 == hi or new >= b[k + 1])


class FourYoung:
    """Admissible column profile b in Z^{m+n} with its strip parameters."""

    __slots__ = ("m", "n", "delta", "b")

    def __init__(self, m, n, delta, b):
        b = tuple(int(x) for x in b)
        if len(b) != m + n:
            raise ValueError(f"profile length {len(b)} != m+n = {m + n}")
        reason = _profile_violation(b, m, n)
        if reason is not None:
            raise ValueError(f"not a 4-Young diagram: {reason}")
        self.m = m
        self.n = n
        self.delta = delta
        self.b = b

    @classmethod
    def _trusted(cls, m, n, delta, b) -> "FourYoung":
        """A profile already known to be an admissible tuple of ints."""
        Y = cls.__new__(cls)
        Y.m, Y.n, Y.delta, Y.b = m, n, delta, b
        return Y

    @property
    def weight(self):
        return self.b

    def to_json(self) -> dict:
        return {"b": list(self.b), "m": self.m, "n": self.n, "delta": self.delta}

    @classmethod
    def from_json(cls, d) -> "FourYoung":
        return cls(d["m"], d["n"], d["delta"], d["b"])

    def __eq__(self, other):
        return (
            isinstance(other, FourYoung)
            and (self.m, self.n, self.delta, self.b)
            == (other.m, other.n, other.delta, other.b)
        )

    def __hash__(self):
        return hash((self.m, self.n, self.delta, self.b))

    def __repr__(self):
        return f"FourYoung(m={self.m}, n={self.n}, delta={self.delta}, b={self.b})"


def from_weight(lam, m, n, delta) -> FourYoung:
    """Profile of an integral weight; raises if it is not blockwise dominant."""
    return FourYoung(m, n, delta, lam)


def base_diagram(m, n, delta) -> FourYoung:
    """Starting profile: -delta in the first m columns, 0 in the rest."""
    return FourYoung(m, n, delta, (-delta,) * m + (0,) * n)


def _moves(b, a, m, n):
    """(action, column, content, new profile) of every walk step of slot a
    from the admissible profile b, in column order. A step moves one column
    by a; its box sits above the axis at height max(b_i, new) when that is
    positive, else below it at depth -min(b_i, new)."""
    out = []
    for k, bk in enumerate(b):
        new = bk + a
        if not _keeps_admissible(b, k, new, m, n):
            continue
        act = "add" if abs(new) > abs(bk) else "remove"
        if max(bk, new) > 0:
            side, content = "above", Fraction(2 * (max(bk, new) - k - 1) + m + n, 2)
        else:
            side, content = "below", Fraction(2 * (k - min(bk, new)) - (m + n), 2)
        out.append((f"{act}_{side}", k + 1, content, b[:k] + (new,) + b[k + 1 :]))
    return out


def boxes(Y: FourYoung, mode: str):
    """(column, shifted content) pairs whose add/remove keeps admissibility."""
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    a, action = _MODES[mode]
    return [(col, c) for act, col, c, _ in _moves(Y.b, a, Y.m, Y.n) if act == action]


class FourYoungSeq:
    """A legal walk: diagrams Y_0..Y_k and per-step (action, column, content)."""

    __slots__ = ("A", "diagrams", "steps")

    def __init__(self, A, diagrams, steps):
        self.A = orseq(A)
        self.diagrams = tuple(diagrams)
        self.steps = tuple(steps)

    def records(self):
        """JSON-ready step records [action, column, content-string]."""
        return [[act, col, str(c)] for act, col, c in self.steps]

    def __eq__(self, other):
        return (
            isinstance(other, FourYoungSeq)
            and (self.A, self.diagrams, self.steps)
            == (other.A, other.diagrams, other.steps)
        )

    def __hash__(self):
        return hash((self.A, self.diagrams, self.steps))

    def __repr__(self):
        return f"FourYoungSeq(A={self.A}, steps={self.steps})"


def enumerate_Y(A, m, n, delta):
    """All legal walks for A.  Full-width strips (m, n >= r+t) give counts
    2, 6, 20 at r+t = 1, 2, 3 — see the module docstring for why the
    dimension figure 2^{r+t}(r+t)! is not a walk count.  On a narrower strip
    (m or n < r+t) boxes get truncated and the counts shrink: the walks are
    still exact, but the dimension identities above are not certified."""
    A = orseq(A)
    start = base_diagram(m, n, delta)
    walks = []

    def rec(diagrams, steps):
        k = len(steps)
        if k == len(A):
            walks.append(FourYoungSeq(A, diagrams, steps))
            return
        for action, col, content, newb in _moves(diagrams[-1].b, A[k], m, n):
            Y = FourYoung._trusted(m, n, delta, newb)
            rec(diagrams + [Y], steps + [(action, col, content)])

    rec([start], [])
    return walks


def eigenvalue_tuple(seq: FourYoungSeq):
    """Per-step eta * content: +content for additions, -content for removals."""
    return [
        c if act.startswith("add") else -c for act, col, c in seq.steps
    ]


def composition_factors(A, m, n, delta):
    """Endpoint weights of all walks, with multiplicity (sorted)."""
    return sorted(seq.diagrams[-1].b for seq in enumerate_Y(A, m, n, delta))


@lru_cache(maxsize=None)
def _interlacing_rows(row, total):
    """Weakly decreasing integer rows nu of length len(row)-1 with
    row_i >= nu_i >= row_{i+1} and sum(nu) == total."""
    k = len(row) - 1
    out = []

    def rec(prefix):
        j = len(prefix)
        if j == k:
            if sum(prefix) == total:
                out.append(tuple(prefix))
            return
        for v in range(row[j + 1], row[j] + 1):
            rec(prefix + [v])

    rec([])
    return tuple(out)


@lru_cache(maxsize=None)
def gt_weight_multiplicity(high, mu) -> int:
    """Dimension of the weight-mu space of the finite-dimensional gl_k
    module with highest weight `high` (weakly decreasing integers), by
    counting Gelfand-Tsetlin patterns with the prescribed row sums."""
    high = tuple(high)
    mu = tuple(mu)
    k = len(high)
    if len(mu) != k or sum(mu) != sum(high):
        return 0
    if k == 1:
        return 1
    target = sum(high) - mu[-1]
    total = 0
    for row in _interlacing_rows(high, target):
        total += gt_weight_multiplicity(row, mu[:-1])
    return total


def levi_weight_multiplicity(lam, mu, m, n) -> int:
    """Weight multiplicity in the outer tensor product of the gl_m and gl_n
    simples with blockwise highest weight lam."""
    lam, mu = tuple(lam), tuple(mu)
    return gt_weight_multiplicity(lam[:m], mu[:m]) * gt_weight_multiplicity(
        lam[m:], mu[m:]
    )


def induced_weight_dimension(lam, nu, m, n) -> int:
    """Weight-nu dimension of the module induced from the blockwise simple
    of highest weight lam: polynomials in the mn lowering symbols x_{ij}
    (weight eps_i - eps_j, i > m >= j) tensor the blockwise simple."""
    lam, nu = tuple(lam), tuple(nu)
    deg = sum(lam[:m]) - sum(nu[:m])
    if deg < 0 or sum(lam) != sum(nu):
        return 0
    pairs = [(i, j) for i in range(m + 1, m + n + 1) for j in range(1, m + 1)]
    total = 0

    def rec(idx, left, kappa):
        nonlocal total
        if idx == len(pairs):
            if left == 0:
                mu = tuple(nu[c] - kappa[c] for c in range(m + n))
                total += levi_weight_multiplicity(lam, mu, m, n)
            return
        i, j = pairs[idx]
        for c in range(left + 1):
            kap = list(kappa)
            kap[i - 1] += c
            kap[j - 1] -= c
            rec(idx + 1, left - c, kap)

    rec(0, deg, [0] * (m + n))
    return total

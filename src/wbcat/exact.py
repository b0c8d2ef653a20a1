"""Exact scalar arithmetic: multivariate polynomials and truncated series.

Everything downstream computes over Q. Polynomials live in y_1..y_k with
dense fixed-length exponent vectors as dict keys; series are truncated
expansions in u^{-1} whose coefficients are such polynomials. No floats
anywhere.

lincomb sums the rewriting engine's elements and the gl_N oracle's vectors;
clean normalizes an accumulator that a caller summed in place. Elimination
(sparse_rank), cyclotomic.cyclo_reduce (which drops cancelled terms as it
goes) and MultiPoly (Fraction coefficients) keep their own loops.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
import re


def rat(x) -> Fraction:
    """Coerce ints, strings like '3/2', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def num(x):
    """Coerce like rat, but return an int when the value is integral."""
    if x.__class__ is int:
        return x
    x = rat(x)
    return x.numerator if x.denominator == 1 else x


# ---------------------------------------------------------------------------
# The linear-combination kernel. A sparse combination is a dict key ->
# nonzero coefficient, an int when integral and a Fraction otherwise.


def lincomb(parts) -> dict:
    """sum c * terms over the (c, terms) in parts, as one fresh clean dict.
    The first nonzero part seeds it as a copy (which keeps the keys' stored
    hashes); no part is modified, so parts may be shared (memoized)."""
    acc = {}
    for c, terms in parts:
        if c.__class__ is not int:
            c = num(c)
        if not c:
            continue
        if not acc:
            acc = dict(terms) if c == 1 else {k: c * v for k, v in terms.items()}
            get = acc.get
        elif c == 1:
            for k, v in terms.items():
                acc[k] = get(k, 0) + v
        else:
            for k, v in terms.items():
                acc[k] = get(k, 0) + c * v
    return clean(acc)


def clean(acc: dict) -> dict:
    """Normalize an accumulator in place and return it: zero coefficients
    are dropped and an integral Fraction becomes an int; a float raises
    TypeError. Only the entries that need it are touched, and a plain loop
    settles the common case of nonzero ints at little constant cost."""
    for v in acc.values():
        if not v or v.__class__ is not int:
            break
    else:
        return acc
    for k in [k for k, v in acc.items() if not v or v.__class__ is not int]:
        v = num(acc[k])
        if v:
            acc[k] = v
        else:
            del acc[k]
    return acc


class MultiPoly:
    """Polynomial in y_1..y_nvars with Fraction coefficients.

    coeffs maps exponent tuples (length nvars) to nonzero Fractions.
    Instances are treated as immutable; all operations return new objects.
    """

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs=None):
        self.nvars = nvars
        clean = {}
        if coeffs:
            for exp, c in coeffs.items():
                c = rat(c)
                if c:
                    if len(exp) != nvars:
                        raise ValueError("exponent length mismatch")
                    clean[tuple(exp)] = c
        self.coeffs = clean

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: rat(c)})

    @classmethod
    def var(cls, nvars: int, i: int) -> "MultiPoly":
        """y_i, 1-based."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable y{i} out of range 1..{nvars}")
        exp = tuple(1 if j == i - 1 else 0 for j in range(nvars))
        return cls(nvars, {exp: Fraction(1)})

    @classmethod
    def monomial(cls, exp, c=1) -> "MultiPoly":
        return cls(len(exp), {tuple(exp): rat(c)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exp) for exp in self.coeffs)

    def constant_term(self) -> Fraction:
        return self.coeffs.get((0,) * self.nvars, Fraction(0))

    def total_degree(self) -> int:
        """Degree of the zero polynomial is -1 by convention here."""
        if not self.coeffs:
            return -1
        return max(sum(e) for e in self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self.nvars == other.nvars and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.coeffs.items())))

    def __add__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.nvars, other)
        if other.nvars != self.nvars:
            raise ValueError("variable-count mismatch")
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            s = out.get(exp, Fraction(0)) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        p = MultiPoly.__new__(MultiPoly)
        p.nvars, p.coeffs = self.nvars, out
        return p

    def __neg__(self) -> "MultiPoly":
        p = MultiPoly.__new__(MultiPoly)
        p.nvars = self.nvars
        p.coeffs = {e: -c for e, c in self.coeffs.items()}
        return p

    def __sub__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.nvars, other)
        return self + (-other)

    def scale(self, c) -> "MultiPoly":
        c = rat(c)
        if not c:
            return MultiPoly.zero(self.nvars)
        p = MultiPoly.__new__(MultiPoly)
        p.nvars = self.nvars
        p.coeffs = {e: c * v for e, v in self.coeffs.items()}
        return p

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction, str)):
            return self.scale(other)
        if other.nvars != self.nvars:
            raise ValueError("variable-count mismatch")
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        p = MultiPoly.__new__(MultiPoly)
        p.nvars, p.coeffs = self.nvars, out
        return p

    __rmul__ = __mul__

    def evaluate(self, point) -> Fraction:
        point = [rat(x) for x in point]
        if len(point) != self.nvars:
            raise ValueError("point length mismatch")
        total = Fraction(0)
        for exp, c in self.coeffs.items():
            v = c
            for x, e in zip(point, exp):
                v *= x ** e
            total += v
        return total

    def extend(self, nvars: int) -> "MultiPoly":
        """Reinterpret in a larger variable ring (new trailing variables)."""
        if nvars < self.nvars:
            raise ValueError("cannot shrink")
        pad = (0,) * (nvars - self.nvars)
        return MultiPoly(nvars, {exp + pad: c for exp, c in self.coeffs.items()})

    def sorted_terms(self):
        """Graded-lex descending, for deterministic output."""
        return sorted(self.coeffs.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            vars_ = "*".join(
                f"y{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exp) if e
            )
            if vars_:
                if c == 1:
                    term = vars_
                elif c == -1:
                    term = "-" + vars_
                else:
                    term = f"{c}*{vars_}"
            else:
                term = str(c)
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


_TOKEN_RE = re.compile(r"\s*(y\d+|\d+(?:/\d+)?|\^|\*|\+|-|\(|\))")

# Largest total degree poly_parse builds. The cost of what the CLI does with
# a polynomial grows fast with it: `center-test` on 8 strands with all 495
# monomials of degree <= 4 takes about 1.6 s, at degree 5 about 4 s.
MAX_POLY_DEGREE = 4


def poly_parse(text: str, nvars: int) -> MultiPoly:
    """Parse the tiny polynomial grammar.

    expr   = term (("+" | "-") term)* ;
    term   = factor ("*" factor)* ;
    factor = atom ("^" integer)? ;
    atom   = rational | variable | "(" expr ")" | "-" atom ;
    rational = digits ("/" digits)? ;  variable = "y" digits ;

    An exponent above MAX_POLY_DEGREE, and a product or power whose total
    degree would exceed it, are refused before they are computed.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad polynomial syntax at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append(None)  # sentinel
    idx = 0

    def peek():
        return tokens[idx]

    def take():
        nonlocal idx
        t = tokens[idx]
        idx += 1
        return t

    def atom() -> MultiPoly:
        t = take()
        if t == "-":
            return -atom()
        if t == "(":
            p = expr()
            if take() != ")":
                raise ValueError("unbalanced parentheses")
            return p
        if t is None:
            raise ValueError("unexpected end of polynomial")
        if t.startswith("y"):
            return MultiPoly.var(nvars, int(t[1:]))
        return MultiPoly.const(nvars, Fraction(t))

    def factor() -> MultiPoly:
        p = atom()
        if peek() == "^":
            take()
            e = take()
            if e is None or not e.isdigit():
                raise ValueError("exponent must be a nonnegative integer")
            n = int(e)
            if max(n, n * p.total_degree()) > MAX_POLY_DEGREE:  # n products, even for a constant
                raise ValueError(f"polynomial exponent or degree above {MAX_POLY_DEGREE}")
            out = MultiPoly.const(nvars, 1)
            for _ in range(n):
                out = out * p
            return out
        return p

    def term() -> MultiPoly:
        p = factor()
        while peek() == "*":
            take()
            q = factor()
            if p.total_degree() + q.total_degree() > MAX_POLY_DEGREE:
                raise ValueError(f"polynomial degree above {MAX_POLY_DEGREE}")
            p = p * q
        return p

    def expr() -> MultiPoly:
        p = term()
        while peek() in ("+", "-"):
            op = take()
            q = term()
            p = p + q if op == "+" else p - q
        return p

    result = expr()
    if peek() is not None:
        raise ValueError(f"trailing input in polynomial: {tokens[idx:]}")
    return result


class LaurentSeries:
    """Truncated series sum_{k=0}^{order} c_k u^{-k}, c_k in Q[y_1..y_nvars]."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs):
        self.nvars = nvars
        self.coeffs = [
            c if isinstance(c, MultiPoly) else MultiPoly.const(nvars, c)
            for c in coeffs
        ]
        for c in self.coeffs:
            if c.nvars != nvars:
                raise ValueError("variable-count mismatch in coefficients")
        if not self.coeffs:
            raise ValueError("series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def from_rationals(cls, values, nvars: int = 0) -> "LaurentSeries":
        return cls(nvars, [MultiPoly.const(nvars, rat(v)) for v in values])

    def __getitem__(self, k: int) -> MultiPoly:
        return self.coeffs[k]

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentSeries):
            return self.nvars == other.nvars and self.coeffs == other.coeffs
        return NotImplemented

    def truncate(self, order: int) -> "LaurentSeries":
        if order >= self.order:
            return self
        return LaurentSeries(self.nvars, self.coeffs[: order + 1])

    def __str__(self) -> str:
        return " + ".join(f"({c})u^-{k}" for k, c in enumerate(self.coeffs))


def series_add(f: LaurentSeries, g: LaurentSeries) -> LaurentSeries:
    if f.nvars != g.nvars:
        raise ValueError("variable-count mismatch")
    n = min(f.order, g.order)
    return LaurentSeries(f.nvars, [f[k] + g[k] for k in range(n + 1)])


def series_mul(f: LaurentSeries, g: LaurentSeries) -> LaurentSeries:
    """Product truncated to min(order f, order g)."""
    if f.nvars != g.nvars:
        raise ValueError("variable-count mismatch")
    n = min(f.order, g.order)
    out = []
    for k in range(n + 1):
        c = MultiPoly.zero(f.nvars)
        for i in range(k + 1):
            c = c + f[i] * g[k - i]
        out.append(c)
    return LaurentSeries(f.nvars, out)


def series_div(f: LaurentSeries, g: LaurentSeries) -> LaurentSeries:
    """f/g where the constant term of g is a nonzero rational (a unit)."""
    if f.nvars != g.nvars:
        raise ValueError("variable-count mismatch")
    g0 = g[0]
    if not g0.is_constant() or g0.is_zero():
        raise ValueError("non-invertible leading coefficient")
    inv0 = Fraction(1) / g0.constant_term()
    n = min(f.order, g.order)
    out = []
    for k in range(n + 1):
        c = f[k]
        for i in range(k):
            c = c - out[i] * g[k - i]
        out.append(c.scale(inv0))
    return LaurentSeries(f.nvars, out)


def series_negate_u(f: LaurentSeries) -> LaurentSeries:
    """f(-u): negate the odd-index coefficients."""
    return LaurentSeries(
        f.nvars,
        [c if k % 2 == 0 else -c for k, c in enumerate(f.coeffs)],
    )


def series_star(f: LaurentSeries) -> LaurentSeries:
    """The involution f -> f(-u) / (1 - u^{-1} f(-u)).

    Defined whenever the denominator's unit constant term makes the division
    legal, which is always (the denominator starts at 1).
    """
    neg = series_negate_u(f)
    denom_coeffs = [MultiPoly.const(f.nvars, 1)]
    for k in range(f.order):
        denom_coeffs.append(-neg[k])
    denom = LaurentSeries(f.nvars, denom_coeffs)
    return series_div(neg, denom)


def series_one(nvars: int, order: int) -> LaurentSeries:
    return LaurentSeries(
        nvars,
        [MultiPoly.const(nvars, 1)] + [MultiPoly.zero(nvars)] * order,
    )


# ---------------------------------------------------------------------------
# Exact linear algebra over Q: dense row reduction and a sparse rank. Entries
# may be int or Fraction, never float. The dense routines divide through
# Fraction; the sparse rank clears denominators once and then eliminates
# fraction-free on int (Bareiss 1968), dividing out only common factors.


def row_echelon(rows):
    """In-place Gauss-Jordan elimination on dense rows.

    Each pivot row is divided by its pivot and the pivot column is cleared
    in every other row, so the first `rank` rows end in reduced row echelon
    form. rows: list of lists of int or Fraction. Returns the rank. Rows are
    modified.
    """
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _int_row(row) -> dict:
    """The nonzero entries of a sparse row as ints: a row with a Fraction
    entry is scaled by the lcm of its denominators."""
    row = {k: v for k, v in row.items() if v}
    if any(v.__class__ is not int for v in row.values()):
        den = lcm(*(rat(v).denominator for v in row.values()))
        row = {k: (v * den).numerator for k, v in row.items()}
    return row


def sparse_rank(rows) -> int:
    """Rank of a list of sparse rows (dicts key -> int or Fraction); zero
    values are ignored and the input is not modified.

    Elimination is fraction-free. Each row is scaled to integers, then
    reduced against every pivot key it contains, pass after pass, until it
    contains none: with p the pivot row's entry at the key, f the row's and
    g = gcd(p, f), row <- (p/g) row - (f/g) pivot row. If anything is left,
    it is divided by the gcd of its entries and stored as a pivot row; its
    pivot is the key whose column has the fewest nonzeros in the input (ties
    go to the first such key in the row), a static Markowitz-style rule that
    keeps the fill-in of the stored pivot rows low.
    """
    colcount = {}
    for row in rows:
        for k, v in row.items():
            if v:
                colcount[k] = colcount.get(k, 0) + 1
    pivots = {}  # pivot key -> (its entry p > 0, the rest of the primitive row)
    for row in rows:
        row = _int_row(row)
        hits = [k for k in row if k in pivots]
        while hits:
            for hit in hits:
                f = row.pop(hit, None)
                if f is None:  # cancelled by an earlier step of this pass
                    continue
                p, rest = pivots[hit]
                g = gcd(p, f)
                if g != p:
                    a = p // g
                    for k in row:
                        row[k] *= a
                f //= g
                for k, v in rest.items():
                    s = row.get(k, 0) - f * v
                    if s:
                        row[k] = s
                    else:
                        del row[k]
            hits = [k for k in row if k in pivots]
        if row:
            k0 = min(row, key=colcount.__getitem__)
            c = gcd(*row.values())
            if row[k0] < 0:
                c = -c
            p = row.pop(k0) // c
            pivots[k0] = (p, {k: v // c for k, v in row.items()} if c != 1 else row)
    return len(pivots)


def nullspace(rows, ncols):
    """Nullspace basis of a dense Fraction matrix (list of row lists).

    Returns a list of coefficient vectors (lists of Fraction) spanning
    {x : rows @ x = 0}, in a deterministic order.
    """
    mat = [list(r) for r in rows]
    rank = row_echelon(mat)
    mat = mat[:rank]
    pivot_cols = []
    for r in mat:
        for c, v in enumerate(r):
            if v:
                pivot_cols.append(c)
                break
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in zip(mat, pivot_cols):
            vec[pc] = -r[fc]
        basis.append(vec)
    return basis


def rref(rows):
    """Reduced row echelon form (new matrix, zero rows dropped)."""
    mat = [list(r) for r in rows]
    rank = row_echelon(mat)
    return mat[:rank]

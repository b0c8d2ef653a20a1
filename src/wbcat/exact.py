"""Exact scalar arithmetic: multivariate polynomials and truncated series.

Everything downstream computes over Q. Polynomials live in y_1..y_k with
dense fixed-length exponent vectors as dict keys; series are truncated
expansions in u^{-1} whose coefficients are such polynomials. No floats
anywhere.

lincomb sums the rewriting engine's elements and the gl_N oracle's vectors;
clean normalizes an accumulator that a caller summed in place.
cyclotomic.cyclo_reduce (which drops cancelled terms as it goes) and
MultiPoly (Fraction coefficients) keep their own loops.

Linear algebra is sparse throughout: one fraction-free elimination on int
rows, _eliminate, is behind sparse_rank, rref and nullspace, which differ
only in the pivot rule and in rref's back-substitution.
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
# Exact linear algebra over Q on sparse rows: dicts column key -> int or
# Fraction, never float, where zero values are ignored. One fraction-free
# elimination on int rows (Bareiss 1968), _eliminate, is behind all of it;
# it divides out only common factors. sparse_rank and rref call it with
# different pivot rules (docs/decisions.md): the rank with the column of
# fewest input nonzeros, rref with the leftmost column, which alone gives
# the canonical pivot columns. Only rref's last step divides by pivots.


def _int_row(row) -> dict:
    """The nonzero entries of a sparse row as ints: a row with a Fraction
    entry is scaled by the lcm of its denominators."""
    row = {k: v for k, v in row.items() if v}
    if any(v.__class__ is not int for v in row.values()):
        den = lcm(*(rat(v).denominator for v in row.values()))
        row = {k: (v * den).numerator for k, v in row.items()}
    return row


def _eliminate(rows, pivot) -> dict:
    """Echelon form of the sparse rows as {pivot key: (p, rest)}, rest being
    the other entries of the primitive pivot row and p > 0 its entry at the
    key. The input is not modified.

    Rows are taken in order. Each is scaled to ints, then reduced against
    every pivot key it contains, pass after pass, until it contains none:
    with p the pivot row's entry at the key, f the row's and g = gcd(p, f),
    row <- (p/g) row - (f/g) pivot row. If anything is left, it is divided
    by the gcd of its entries and stored with the key pivot(row) as its
    pivot.
    """
    pivots = {}
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
            k0 = pivot(row)
            c = gcd(*row.values())
            if row[k0] < 0:
                c = -c
            p = row.pop(k0) // c
            pivots[k0] = (p, {k: v // c for k, v in row.items()} if c != 1 else row)
    return pivots


def sparse_rank(rows) -> int:
    """Rank of a list of sparse rows. The pivot of a row is the key whose
    column has the fewest nonzeros in the input (ties go to the first such
    key in the row), a static Markowitz-style rule that keeps the fill-in of
    the stored pivot rows low; keys need only be hashable."""
    colcount = {}
    for row in rows:
        for k, v in row.items():
            if v:
                colcount[k] = colcount.get(k, 0) + 1
    return len(_eliminate(rows, lambda row: min(row, key=colcount.__getitem__)))


def rref(rows) -> list:
    """The reduced row echelon form of a list of sparse rows with orderable
    keys: its nonzero rows in ascending pivot column, each a dict whose
    first key is its pivot column, with entry 1, and whose values are ints
    where integral.

    The leftmost-pivot echelon form is eliminated once more, fraction-free,
    from its last row up: each row is then cleared of the pivot columns to
    its right, and keeps its own pivot as its leftmost key. Only the final
    division by the pivots makes Fractions."""
    echelon = _eliminate(rows, min)
    bottom_up = [{k0: p, **rest} for k0, (p, rest) in sorted(echelon.items(), reverse=True)]
    return [
        {k0: 1, **{k: num(Fraction(v, p)) for k, v in rest.items()}}
        for k0, (p, rest) in sorted(_eliminate(bottom_up, min).items())
    ]


def row_echelon(rows) -> int:
    """Rank of a list of sparse rows with orderable keys, through rref."""
    # sparse_rank is the faster rank; this name stays because
    # perfbench/layertrace.SPANS lists it, and its smoke test fails on a
    # listed function that is missing.
    return len(rref(rows))


def nullspace(rows, ncols) -> list:
    """Basis of {x : sum_k row[k] x[k] = 0 for every row} for sparse rows
    over the columns 0..ncols-1, read off rref: one vector per free column,
    in ascending order, a dict with 1 at that column and minus the column's
    entry of each reduced row at that row's pivot column."""
    reduced = {next(iter(r)): r for r in rref(rows)}
    basis = {fc: {fc: 1} for fc in range(ncols) if fc not in reduced}
    for pc, r in reduced.items():
        for k, v in r.items():
            if k != pc:
                basis[k][pc] = -v
    return list(basis.values())

"""Level-two quotients: parameters, basis reduction, structure constants,
and the centre via Q-cancellation.

The quotient imposes one quadratic relation per object: on any object the
leftmost dot satisfies (y_1 - beta)(y_1 - beta') = 0, with the root pair
chosen by the first orientation entry (+1: (beta_1, beta_2); -1: the
starred pair). Dot stacks at interior positions are reduced through an
exact conjugation: with T the crossing-word element routing position 1 to
position j and Q = (y_1 - beta)(y_1 - beta') on the cycled object,

    y_j^2 = [y_j^2 - T Q Tbar] + T Q Tbar,

the bracket is computed in the affine engine and has dot degree <= 1
(the degree-2 parts of y_j^2 and T y_1^2 Tbar agree), while T Q Tbar
vanishes in the quotient. Replacing y_j^2 by the bracket therefore
strictly lowers the rewritten monomial's total dot degree, so iterating
to binary dots terminates.

The centre of End(A) in the quotient is detected two independent ways:
commutators with every endomorphism generator reduce to zero, or the
polynomial is invariant under orientation-preserving permutations of the
dots and satisfies Q-cancellation (substituting t, -t at one mixed pair
of positions gives the same value as substituting 0, 0).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .affine import OmegaSpec, element_for_word, multiply, reduce as affine_reduce
from .diagrams import (
    DecoratedElement,
    Monomial,
    cyclotomic_monomials,
    generator,
    identity_diagram,
    orseq,
    rt_counts,
)
from .exact import LaurentSeries, MultiPoly, nullspace, series_div


# ---------------------------------------------------------------------------
# Parameters.


@dataclass(frozen=True)
class CycloParams:
    m: int
    n: int
    delta: int
    beta1: Fraction = field(init=False)
    beta2: Fraction = field(init=False)
    beta1s: Fraction = field(init=False)
    beta2s: Fraction = field(init=False)
    omega: OmegaSpec = field(init=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")
        if self.delta in (self.m, self.n):
            raise ValueError("degenerate eigenvalues: delta must differ from m and n")
        object.__setattr__(self, "beta1", Fraction(-self.delta) + Fraction(self.m + self.n, 2))
        object.__setattr__(self, "beta2", Fraction(self.n - self.m, 2))
        object.__setattr__(self, "beta1s", Fraction(self.m + self.n, 2))
        object.__setattr__(self, "beta2s", Fraction(self.delta) + Fraction(self.m - self.n, 2))
        object.__setattr__(self, "omega", OmegaSpec.from_mn_delta(self.m, self.n, self.delta))
        # every other field follows from (m, n, delta); hash once, not per memo lookup
        object.__setattr__(self, "_hash", hash((self.m, self.n, self.delta)))

    def __hash__(self):
        return self._hash

    def roots(self, orientation: int):
        if orientation == 1:
            return self.beta1, self.beta2
        return self.beta1s, self.beta2s

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n, "delta": self.delta}

    @classmethod
    def from_json(cls, obj: dict) -> "CycloParams":
        return cls(obj["m"], obj["n"], obj["delta"])


def make_params(m: int, n: int, delta: int) -> CycloParams:
    return CycloParams(m, n, delta)


def w1_closed_form(p: CycloParams, k: int) -> Fraction:
    """u^{-k} coefficient of
    (omega_0 + (omega_1 - (b1+b2) omega_0) u^{-1})
        / (1 - (b1+b2) u^{-1} + b1 b2 u^{-2})."""
    if k < 0:
        raise ValueError("negative series index")
    s = p.beta1 + p.beta2
    pr = p.beta1 * p.beta2
    om0, om1 = p.omega(0), p.omega(1)
    num = LaurentSeries.from_rationals([om0, om1 - s * om0] + [0] * max(0, k - 1))
    den = LaurentSeries.from_rationals([1, -s, pr] + [0] * max(0, k - 2))
    return series_div(num.truncate(k), den.truncate(k))[k].constant_term()


# ---------------------------------------------------------------------------
# Reduction to the cyclotomic basis.


@lru_cache(maxsize=None)
def _quadratic_replacement(C: tuple, j: int, p: CycloParams) -> DecoratedElement:
    """Element of End(C) equal to y_j^2 in the quotient, of dot degree <= 1."""
    om = p.omega
    beta, betap = p.roots(C[j - 1])
    s, pr, unit = beta + betap, beta * betap, DecoratedElement.unit
    if j == 1:
        return DecoratedElement.lincomb(C, C, [(s, generator("y", C, 1)), (-pr, unit(C))])
    Ap = (C[j - 1],) + C[: j - 1] + C[j:]
    word = [("c", i) for i in range(1, j)]  # routes bottom 1 to top j
    T = element_for_word(word, Ap, om)
    if T.top != C:
        raise AssertionError("crossing word does not end on the object")
    Tbar = element_for_word(list(reversed(word)), C, om)
    y1 = generator("y", Ap, 1)
    Q = DecoratedElement.lincomb(Ap, Ap, [(1, multiply(y1, y1, om)), (-s, y1), (pr, unit(Ap))])
    yj = generator("y", C, j)
    repl = multiply(yj, yj, om) - multiply(T, multiply(Q, Tbar, om), om)
    if repl.degree() > 1:
        raise AssertionError("conjugated quadratic kept degree 2")
    return repl


def _find_stack(m: Monomial):
    for j in range(1, m.diagram.n + 1):
        if m.gamma[j - 1] >= 2:
            return "b", j
        if m.eta[j - 1] >= 2:
            return "t", j
    return None


def cyclo_reduce(x: DecoratedElement, p: CycloParams) -> DecoratedElement:
    """Normal form with binary dots: affine-reduce, then eliminate dot
    stacks through the transported quadratic relation until fixpoint."""
    el = affine_reduce(x, p.omega)
    # one mutable copy: affine_reduce may hand back a shared element
    terms = dict(el.terms)
    while True:
        target = next(((m, c, s) for m, c in terms.items() if (s := _find_stack(m))), None)
        if target is None:
            return DecoratedElement(el.bottom, el.top, terms)
        m, c, (side, j) = target
        del terms[m]
        if side == "b":
            m1 = Monomial(m.diagram, _drop2(m.gamma, j), m.eta)
            repl = _quadratic_replacement(m.bottom, j, p)
            prod = multiply(DecoratedElement.from_monomial(m1), repl, p.omega)
        else:
            m1 = Monomial(m.diagram, m.gamma, _drop2(m.eta, j))
            repl = _quadratic_replacement(m.top, j, p)
            prod = multiply(repl, DecoratedElement.from_monomial(m1), p.omega)
        for mm, v in prod.terms.items():
            s = terms.get(mm, 0) + c * v
            if s:
                terms[mm] = s
            else:
                del terms[mm]


def _drop2(vec, j):
    return vec[: j - 1] + (vec[j - 1] - 2,) + vec[j:]


def basis_hypotheses(A, p: CycloParams) -> bool:
    """True iff the basis theorem applies to End(A): m, n >= r+t and r >= 1."""
    r, t = rt_counts(orseq(A))
    return r >= 1 and p.m >= r + t and p.n >= r + t


def basis(A, p: CycloParams):
    """All cyclotomic regular monomials on A: 2^{r+t} (r+t)! of them."""
    A = orseq(A)
    if not basis_hypotheses(A, p):
        warnings.warn(
            "basis hypotheses violated (need m, n >= r+t and r >= 1); "
            "the monomial list may not be linearly independent",
            stacklevel=2,
        )
    return cyclotomic_monomials(A)


def structure_constants(A, p: CycloParams):
    """Sparse multiplication table: {(i, j, k): c} with
    basis_i . basis_j = sum_k c[i,j,k] basis_k."""
    A = orseq(A)
    bas = basis(A, p)
    index = {m: k for k, m in enumerate(bas)}
    elems = [DecoratedElement.from_monomial(m) for m in bas]
    triples = {}
    for i, bi in enumerate(elems):
        for j, bj in enumerate(elems):
            prod = cyclo_reduce(multiply(bi, bj, p.omega), p)
            for m, c in prod.terms.items():
                triples[(i, j, index[m])] = c
    return triples


# ---------------------------------------------------------------------------
# The centre.


def poly_element(x: MultiPoly, A) -> DecoratedElement:
    """The dotted-identity element sum_e c_e y^e on A."""
    A = orseq(A)
    if x.nvars > len(A):
        raise ValueError("polynomial has more variables than strands")
    D = identity_diagram(A)
    pad = (0,) * (len(A) - x.nvars)
    return DecoratedElement(A, A, {Monomial(D, e + pad): c for e, c in x.coeffs.items()})


def _substitute(exp: tuple, i: int, j: int):
    """y^exp under (y_i, y_j) -> (t, -t) as (bucket (k, rest) for t^k y^rest,
    sign (-1)^{e_j}); None for k = 0, where (0, 0) gives the same term."""
    k = exp[i - 1] + exp[j - 1]
    if k == 0:
        return None
    rest = tuple(0 if v + 1 in (i, j) else e for v, e in enumerate(exp))
    return (k, rest), (-1) ** exp[j - 1]


def q_cancellation(x: MultiPoly, i: int, j: int) -> bool:
    """True iff substituting (y_i, y_j) -> (t, -t) equals substituting
    (y_i, y_j) -> (0, 0), the remaining variables symbolic."""
    if i == j:
        raise ValueError("need two distinct positions")
    buckets = {}
    for exp, c in x.coeffs.items():
        if hit := _substitute(exp, i, j):
            buckets[hit[0]] = buckets.get(hit[0], 0) + hit[1] * c
    return not any(buckets.values())


def endomorphism_generators(A):
    """Generator elements of End(A): the dots, and s_i or e_i per position."""
    A = orseq(A)
    gens = [generator("y", A, i) for i in range(1, len(A) + 1)]
    for i in range(1, len(A)):
        gens.append(generator("s" if A[i - 1] == A[i] else "e", A, i))
    return gens


def is_central(x: MultiPoly, A, p: CycloParams) -> bool:
    """True iff the dotted-identity element commutes with every generator
    of End(A), with commutators reduced in the dot-filtered category.

    Centrality is decided at the polynomial level, before the quadratic
    reduction: the quotient map kills the transported quadratics, so every
    kernel polynomial has a trivially central (zero) image while typically
    failing Q-cancellation. Filtered commutators keep the polynomial ring
    embedded, and the central set is then exactly the invariant
    Q-cancellation set, matching center_basis."""
    A = orseq(A)
    xe = poly_element(x, A)
    for g in endomorphism_generators(A):
        if not (multiply(xe, g, p.omega) - multiply(g, xe, p.omega)).is_zero():
            return False
    return True


def _orientation_transpositions(A):
    """Transpositions generating the orientation-preserving permutations."""
    A = orseq(A)
    out = []
    for ori in (1, -1):
        posns = [i for i in range(1, len(A) + 1) if A[i - 1] == ori]
        out.extend(zip(posns, posns[1:]))
    return out


def _exponents_up_to(nvars: int, max_deg: int):
    out = [()]
    for _ in range(nvars):
        out = [e + (k,) for e in out for k in range(max_deg + 1 - sum(e))]
    return sorted(out, key=lambda e: (sum(e), e))


def center_basis(A, p: CycloParams, max_deg: int):
    """Basis of the degree <= max_deg polynomials that are invariant under
    orientation-preserving permutations and satisfy Q-cancellation at one
    mixed pair (the constraints are linear in the coefficients)."""
    A = orseq(A)
    nv = len(A)
    exps = _exponents_up_to(nv, max_deg)
    col = {e: k for k, e in enumerate(exps)}
    rows = []
    for i, j in _orientation_transpositions(A):
        for e in exps:
            swapped = list(e)
            swapped[i - 1], swapped[j - 1] = swapped[j - 1], swapped[i - 1]
            swapped = tuple(swapped)
            if swapped == e:
                continue
            rows.append({col[e]: 1, col[swapped]: -1})
    pair = next(
        (
            (i, j)
            for i in range(1, nv + 1)
            for j in range(i + 1, nv + 1)
            if A[i - 1] != A[j - 1]
        ),
        None,
    )
    if pair is not None:
        i, j = pair
        buckets = {}
        for e in exps:
            if hit := _substitute(e, i, j):
                buckets.setdefault(hit[0], []).append((col[e], hit[1]))
        rows.extend(dict(entries) for entries in buckets.values())
    out = [
        MultiPoly(nv, {exps[k]: c for k, c in vec.items()})
        for vec in nullspace(rows, len(exps))
    ]
    out.sort(key=lambda q: (q.total_degree(), sorted(q.coeffs)))
    return out

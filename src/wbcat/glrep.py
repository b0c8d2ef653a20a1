"""Exact gl_N tensor-space oracle.

Vectors live in M (x) V^{a_1} (x) ... (x) V^{a_n} where V is the vector
representation with basis v_1..v_N, V^{-1} its dual, and M is either the
trivial module or the parabolic highest-weight module with one-dimensional
highest weight space of weight -delta(eps_1+...+eps_m) for the two-block
parabolic gl_m + gl_n + (upper right). The negative nilradical
u^- = span{E_ij : i > m >= j} is abelian, so PBW monomials x^mu z in the
symbols x_ij form a basis of M; module vectors are finite exact
combinations of keys (mu, slots). A coefficient is an int whenever it is
integral and a Fraction only when it is not: the action is defined over
Z[1/2], and halves come only from the N/2 shift of y at odd N or from
scaling by a non-integral Fraction.

Generators act by: crossings swap adjacent slots; cap-cups are the delta
maps v_c (x) v*_d -> delta_cd sum_k (k, k) (hatted: exchanging the two
orientations); y_i = sum_{0<=k<i} Omega_{ki} + N/2 with the split Casimir
Omega = sum_{a,b} E_ab (x) E_ba applied between factor k and slot i. The
elementary action on a slot is E_ab v_c = delta_bc v_a on V and
E_ab v*_c = -delta_ac v*_b on V^-1; on the module factor E_ab commutes
past the x-symbols via [E_ab, E_ij] = delta_bi E_aj - delta_ja E_ib down
to E_aa z = -delta z (a <= m) and E u^- multiplication.

Between two slots, Omega is read from a small cached table (_slot_pair)
built from the slot rule above by summing over (a, b): a swap when the
slots have the same orientation, minus a cap-cup when they are opposite.
Between the module and a slot it is read from a second cached table
(_module_slot): for one slot value and one PBW monomial, every new slot
value d with the module action that goes with it, already signed. A dot
y_i adds all of its Omega terms into one accumulator seeded with (N/2)v
and cleans it once (exact.clean). Every other sum of vectors is one call of
exact.lincomb, the kernel shared with the rewriting engine.

This module is the independent route against which the diagrammatic
engines are checked: represent() pushes a decorated element through its
generator word and must satisfy every defining relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product

from .diagrams import (
    DecoratedElement,
    cyclotomic_monomials,
    generator_token,
    orseq,
    swap_seq,
    word_for_monomial,
)
from .exact import clean, lincomb, rref, sparse_rank


@dataclass(frozen=True)
class GlContext:
    kind: str  # 'trivial' | 'parabolic'
    N: int
    m: int = 0
    n: int = 0
    delta: int = 0

    def __post_init__(self):
        if self.kind not in ("trivial", "parabolic"):
            raise ValueError(f"unknown module kind {self.kind!r}")
        if self.kind == "parabolic":
            if self.m < 1 or self.n < 1:
                raise ValueError("parabolic kind needs m, n >= 1")
            if self.N != self.m + self.n:
                raise ValueError("parabolic kind needs N = m + n")

    @classmethod
    def trivial(cls, N: int) -> "GlContext":
        return cls("trivial", N)

    @classmethod
    def parabolic(cls, m: int, n: int, delta: int) -> "GlContext":
        return cls("parabolic", m + n, m, n, delta)


@lru_cache(maxsize=None)
def _module_action(m: int, delta: int, a: int, b: int, mu: tuple):
    """E_ab acting on x^mu z in the parabolic module: ((coeff, mu'), ...)
    with int coefficients."""
    if not mu:
        if a > m >= b:
            return ((1, ((a, b),)),)
        if a == b and a <= m:
            return ((-delta, ()),) if delta else ()
        return ()
    (i, j) = mu[0]
    rest = mu[1:]
    on_rest = _module_action(m, delta, a, b, rest)
    parts = [(1, {tuple(sorted(nu + ((i, j),))): c for c, nu in on_rest})]
    if b == i:
        parts.append((1, {nu: c for c, nu in _module_action(m, delta, a, j, rest)}))
    if j == a:
        parts.append((-1, {nu: c for c, nu in _module_action(m, delta, i, b, rest)}))
    return tuple((c, nu) for nu, c in lincomb(parts).items())


def _slot_E(up: bool, a: int, b: int, e: int):
    """E_ab on a slot holding v_e (up) or v*_e: (e', sign), or None for 0."""
    if up:
        return (a, 1) if b == e else None
    return (b, -1) if a == e else None


@lru_cache(maxsize=None)
def _slot_pair(N: int, up_j: bool, up_k: bool, e: int, c: int):
    """Omega = sum_{a,b} E_ab (x) E_ba on slots j < k holding e and c:
    ((e', c', sign), ...). A swap when the slots have the same orientation,
    -sum_d (d, d) when they are opposite and e = c, nothing otherwise."""
    out = []
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            at_j, at_k = _slot_E(up_j, a, b, e), _slot_E(up_k, b, a, c)
            if at_j and at_k:
                out.append((at_j[0], at_k[0], at_j[1] * at_k[1]))
    return tuple(out)


@lru_cache(maxsize=None)
def _module_slot(N: int, m: int, delta: int, up: bool, c: int, mu: tuple):
    """Omega between the module and a slot holding v_c (up) or v*_c, on
    x^mu z: ((d, coeff, nu), ...), the slot becoming d and x^mu z becoming
    coeff * x^nu z, with int coefficients."""
    out = []
    for d in range(1, N + 1):
        # E_ba sends the slot from c to d (by _slot_E); E_ab acts on M
        a, b = (c, d) if up else (d, c)
        for c2, nu in _module_action(m, delta, a, b, mu):
            out.append((d, c2 if up else -c2, nu))
    return tuple(out)


def _vector(ctx: GlContext, A: tuple, terms: dict) -> "ModuleVector":
    """A ModuleVector over terms that are already clean (exact.clean)."""
    v = ModuleVector.__new__(ModuleVector)
    v.ctx, v.A, v.terms = ctx, A, terms
    return v


class ModuleVector:
    """Exact vector in M (x) V^{(x)A}: keys (mu, slots) -> nonzero int, or
    Fraction when the coefficient is not integral. Sums go through the
    kernel exact.lincomb."""

    __slots__ = ("ctx", "A", "terms")

    def __init__(self, ctx: GlContext, A, terms=None):
        self.ctx = ctx
        self.A = orseq(A)
        self.terms = lincomb(((1, terms or {}),))

    @classmethod
    def basis_vector(cls, ctx, A, slots, mu=()) -> "ModuleVector":
        A = orseq(A)
        slots = tuple(slots)
        if len(slots) != len(A):
            raise ValueError("slot count mismatch")
        if not all(1 <= s <= ctx.N for s in slots):
            raise ValueError("slot index out of range")
        if mu and ctx.kind == "trivial":
            raise ValueError("trivial module has no x-symbols")
        return _vector(ctx, A, {(tuple(sorted(mu)), slots): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, mu, slots) -> Fraction:
        return Fraction(self.terms.get((tuple(sorted(mu)), tuple(slots)), 0))

    def __add__(self, other) -> "ModuleVector":
        return self._plus(1, other)

    def __sub__(self, other) -> "ModuleVector":
        return self._plus(-1, other)

    def _plus(self, c, other) -> "ModuleVector":
        if other.A != self.A:
            raise ValueError("object mismatch")
        return _vector(self.ctx, self.A, lincomb(((1, self.terms), (c, other.terms))))

    def scale(self, c) -> "ModuleVector":
        return _vector(self.ctx, self.A, lincomb(((c, self.terms),)))

    def __eq__(self, other):
        if isinstance(other, ModuleVector):
            return (
                self.ctx == other.ctx
                and self.A == other.A
                and self.terms == other.terms
            )
        return NotImplemented

    def __repr__(self):
        if not self.terms:
            return "ModuleVector(0)"
        bits = ", ".join(
            f"{c}*x{list(mu)}z(x){list(slots)}"
            for (mu, slots), c in sorted(self.terms.items())
        )
        return f"ModuleVector({bits})"


def zero_vector(ctx, A) -> ModuleVector:
    return ModuleVector(ctx, A)


def apply_E_at(ctx, a: int, b: int, v: ModuleVector, pos: int) -> ModuleVector:
    """E_ab acting on factor `pos` (0 = module, k >= 1 = slot k) only."""
    acc = {}
    if pos == 0:
        if ctx.kind == "parabolic":
            for (mu, slots), coeff in v.terms.items():
                for c2, nu in _module_action(ctx.m, ctx.delta, a, b, mu):
                    key = (nu, slots)
                    acc[key] = acc.get(key, 0) + coeff * c2
    else:
        up = v.A[pos - 1] == 1
        for (mu, slots), coeff in v.terms.items():
            hit = _slot_E(up, a, b, slots[pos - 1])
            if hit:
                key = (mu, slots[: pos - 1] + (hit[0],) + slots[pos:])
                acc[key] = acc.get(key, 0) + hit[1] * coeff
    return _vector(ctx, v.A, clean(acc))


def apply_E(ctx, a: int, b: int, v: ModuleVector) -> ModuleVector:
    """Coproduct action of E_ab on the whole tensor product."""
    parts = [(1, apply_E_at(ctx, a, b, v, pos).terms) for pos in range(len(v.A) + 1)]
    return _vector(ctx, v.A, lincomb(parts))


def omega_pair(v: ModuleVector, j: int, k: int, acc: dict | None = None):
    """Omega_{jk}: the split Casimir between factors j < k (0 = module).

    With `acc`, a dict of terms (mu, slots) -> coefficient over the same
    object, the terms of Omega_{jk} v are added into it and None is
    returned; the caller cleans it (exact.clean)."""
    if j > k:
        j, k = k, j
    if j == k or k == 0:
        raise ValueError("need two distinct factors, at least one slot")
    ctx = v.ctx
    N = ctx.N
    up_k = v.A[k - 1] == 1
    own = acc is None
    if own:
        acc = {}
    get = acc.get
    if j == 0:
        if ctx.kind == "parabolic":
            m, delta = ctx.m, ctx.delta
            for (mu, slots), coeff in v.terms.items():
                head, tail = slots[: k - 1], slots[k:]
                for d, c2, nu in _module_slot(N, m, delta, up_k, slots[k - 1], mu):
                    key = (nu, head + (d,) + tail)
                    acc[key] = get(key, 0) + coeff * c2
    else:
        up_j = v.A[j - 1] == 1
        for (mu, slots), coeff in v.terms.items():
            for e2, c2, sgn in _slot_pair(N, up_j, up_k, slots[j - 1], slots[k - 1]):
                ns = list(slots)
                ns[j - 1], ns[k - 1] = e2, c2
                key = (mu, tuple(ns))
                acc[key] = get(key, 0) + sgn * coeff
    return _vector(ctx, v.A, clean(acc)) if own else None


def y_apply(v: ModuleVector, i: int) -> ModuleVector:
    """y_i = sum_{0 <= k < i} Omega_{ki} + N/2, summed in one accumulator."""
    if not 1 <= i <= len(v.A):
        raise ValueError("dot index out of range")
    N = v.ctx.N
    half = N // 2 if N % 2 == 0 else Fraction(N, 2)
    acc = {key: half * c for key, c in v.terms.items()}
    for k in range(i):
        omega_pair(v, k, i, acc)
    return _vector(v.ctx, v.A, clean(acc))


def apply_token(tok, v: ModuleVector) -> ModuleVector:
    """Apply one generator word token (see diagrams.word_for_monomial)."""
    kind, i = tok
    ctx, A = v.ctx, v.A
    n = len(A)
    if kind == "y":
        return y_apply(v, i)
    if not 1 <= i <= n - 1:
        raise ValueError("token index out of range")
    if kind == "c":
        terms = {}
        for (mu, slots), c in v.terms.items():
            ns = list(slots)
            ns[i - 1], ns[i] = ns[i], ns[i - 1]
            terms[(mu, tuple(ns))] = c
        return _vector(ctx, swap_seq(A, i), terms)
    if kind in ("e", "eh"):
        if A[i - 1] == A[i]:
            raise ValueError("generator does not exist for this object")
        newA = A if kind == "e" else swap_seq(A, i)
        acc = {}
        get = acc.get
        for (mu, slots), c in v.terms.items():
            if slots[i - 1] != slots[i]:
                continue
            head, tail = slots[: i - 1], slots[i + 1 :]
            for d in range(1, ctx.N + 1):
                key = (mu, head + (d, d) + tail)
                acc[key] = get(key, 0) + c
        return _vector(ctx, newA, clean(acc))
    raise ValueError(f"unknown token {tok!r}")


def apply_word(word, v: ModuleVector) -> ModuleVector:
    for tok in word:
        v = apply_token(tok, v)
    return v


def apply_generator(kind: str, i: int, v: ModuleVector) -> ModuleVector:
    """Named generator (s/e/sh/eh/y) with orientation preconditions, as in
    diagrams.generator_token."""
    return apply_token(generator_token(kind, v.A, i), v)


def represent(x: DecoratedElement, v: ModuleVector) -> ModuleVector:
    """Push a decorated element through its generator word."""
    if x.bottom != v.A:
        raise ValueError("boundary mismatch")
    parts = [(c, apply_word(word_for_monomial(m), v).terms) for m, c in x.terms.items()]
    return _vector(v.ctx, x.top, lincomb(parts))


# ---------------------------------------------------------------------------
# Derived quantities.


def extract_omega(ctx: GlContext, k: int) -> Fraction:
    """omega_k of the module: coefficient of z (x) v_1 (x) v*_1 in
    e_1 y_1^k e_1 applied to that same vector on A = (1, -1)."""
    A = (1, -1)
    v = ModuleVector.basis_vector(ctx, A, (1, 1))
    v = apply_token(("e", 1), v)
    for _ in range(k):
        v = y_apply(v, 1)
    v = apply_token(("e", 1), v)
    return v.coeff((), (1, 1))


def u_minus_generators(ctx: GlContext):
    return [
        (i, j)
        for i in range(ctx.m + 1, ctx.N + 1)
        for j in range(1, ctx.m + 1)
    ]


def basis_weight(ctx: GlContext, A, key):
    """gl_N weight of a basis tensor key (mu, slots): the highest-weight
    line plus eps_i - eps_j per x_{ij} and +-eps_{slot} per tensor slot."""
    mu, slots = key
    w = [0] * ctx.N
    if ctx.kind == "parabolic":
        for a in range(ctx.m):
            w[a] -= ctx.delta
        for i, j in mu:
            w[i - 1] += 1
            w[j - 1] -= 1
    for k, a in enumerate(orseq(A)):
        w[slots[k] - 1] += a
    return tuple(w)


def module_monomials(ctx: GlContext, max_deg: int):
    """PBW monomials of u^- of degree <= max_deg (just () for trivial)."""
    if ctx.kind == "trivial":
        return [()]
    gens = u_minus_generators(ctx)
    out = [()]
    for d in range(1, max_deg + 1):
        out.extend(tuple(sorted(c)) for c in combinations_with_replacement(gens, d))
    return out


def spanning_vectors(ctx: GlContext, A, max_deg: int = 2):
    """Spanning set of the degree <= max_deg part of M (x) V^{(x)A}."""
    A = orseq(A)
    for mu in module_monomials(ctx, max_deg):
        for slots in product(range(1, ctx.N + 1), repeat=len(A)):
            yield ModuleVector.basis_vector(ctx, A, slots, mu)


def y1_minimal_poly(ctx: GlContext, orientation: int):
    """Monic minimal polynomial of y_1 on the degree <= 2 part of M (x) V^{or}.

    Returned as a coefficient tuple, lowest degree first, last entry 1.
    Degree d = 1, then 2: solve y^d v = -sum_{j<d} c_j y^j v on every
    coordinate of every test vector v, one row [y^0 v .. y^{d-1} v | -y^d v]
    per key, accepted when the reduced left block is the identity.
    """
    if ctx.kind != "parabolic":
        raise ValueError("minimal polynomial probe needs the parabolic module")
    data = []
    for v in spanning_vectors(ctx, (orientation,), max_deg=2):
        v1 = y_apply(v, 1)
        data.append((v, v1, y_apply(v1, 1)))
    for d in (1, 2):
        rows = [
            dict(enumerate([w.terms.get(key, 0) for w in ws[:d]] + [-ws[d].terms.get(key, 0)]))
            for ws in data
            for key in set().union(*(w.terms for w in ws[: d + 1]))
        ]
        sol = rref(rows)
        if [next(iter(r)) for r in sol] != list(range(d)):  # pivots 0..d-1: the identity
            continue
        cs = [r.get(d, 0) for r in sol]
        # the system is overdetermined: the residual must vanish everywhere
        for ws in data:
            if lincomb([(1, ws[d].terms)] + [(c, w.terms) for c, w in zip(cs, ws)]):
                raise ArithmeticError(f"degree-{d} solution fails on a test vector")
        return (*map(Fraction, cs), Fraction(1))
    raise ArithmeticError("no monic quadratic annihilates the test span")


def levi_inputs(m: int, N: int, k: int):
    """Split the slot tuples beta in {1..N}^k into (firsts, rest), each in
    lexicographic order: beta is first of its S_m x S_n orbit when, read
    left to right, every new value in 1..m is the smallest unused one of
    1..m and every new value in m+1..N the smallest unused one of m+1..N."""
    firsts, rest = [], []
    for beta in product(range(1, N + 1), repeat=k):
        fresh = [1, m + 1]  # smallest unused value on each side
        for b in beta:
            side = b > m
            if b > fresh[side]:
                rest.append(beta)
                break
            if b == fresh[side]:
                fresh[side] += 1
        else:
            firsts.append(beta)
    return firsts, rest


def faithfulness_rank(A, params) -> int:
    """Rank of the basis-monomial images on all tensor inputs z (x) v_beta,
    beta in {1..N}^k.

    `params` provides m, n, delta (the cyclotomic parameter triple). One row
    per regular monomial; one int-numbered column per pair (beta, key). The
    rows are first built and ranked on the inputs that are first of their
    S_m x S_n orbit (levi_inputs). A column subset has rank at most the full
    rank, which is at most the number of rows, so a full rank there is the
    answer. Otherwise the remaining inputs are added to the same rows and
    the whole matrix is ranked. Why the first pass is expected to suffice:
    docs/decisions.md.
    """
    A = orseq(A)
    ctx = GlContext.parabolic(params.m, params.n, params.delta)
    elements = [DecoratedElement.from_monomial(mono) for mono in cyclotomic_monomials(A)]
    rows = [{} for _ in elements]
    cols = {}
    for inputs in levi_inputs(ctx.m, ctx.N, len(A)):
        for beta in inputs:
            v = ModuleVector.basis_vector(ctx, A, beta)
            for el, row in zip(elements, rows):
                for key, c in represent(el, v).terms.items():
                    row[cols.setdefault((beta, key), len(cols))] = c
        rank = sparse_rank(rows)
        if rank == len(rows):
            break
    return rank


# ---------------------------------------------------------------------------
# Operator-identity report.


def _vec_key(v: ModuleVector):
    (key,) = list(v.terms)[:1] or [None]
    return key


def verify_section8(ctx: GlContext, A, max_deg: int = 2) -> dict:
    """Check the operator identities behind the representation, per id:
    each is verified on the full tensor basis (trivial) or the
    degree <= max_deg spanning set (parabolic)."""
    A = orseq(A)
    n = len(A)
    vectors = list(spanning_vectors(ctx, A, max_deg))
    report = {}

    def run(check_id, instance_iter):
        count = 0
        failures = []
        for label, fn in instance_iter:
            for v in vectors:
                count += 1
                if not fn(v):
                    failures.append(f"{label} on {_vec_key(v)}")
        report[check_id] = {"instances": count, "failures": failures}

    def crossing_slides():
        for i in range(1, n):
            for j in range(0, n + 1):
                for k in range(j + 1, n + 1):
                    def fn(v, i=i, j=j, k=k):
                        si = lambda x: x if x == 0 else (
                            i + 1 if x == i else i if x == i + 1 else x
                        )
                        lhs = apply_token(("c", i), omega_pair(v, j, k))
                        rhs = omega_pair(apply_token(("c", i), v), si(j), si(k))
                        return lhs == rhs
                    yield f"i={i},j={j},k={k}", fn

    run("crossing_slides_casimir", crossing_slides())

    def far_dots():
        for i in range(1, n):
            for j in range(1, n + 1):
                if j in (i, i + 1):
                    continue
                def fn(v, i=i, j=j):
                    return apply_token(("c", i), y_apply(v, j)) == y_apply(
                        apply_token(("c", i), v), j
                    )
                yield f"i={i},j={j}", fn

    run("crossing_commutes_far_dots", far_dots())

    def contraction_kills_casimir_sum():
        for i in range(1, n):
            if A[i - 1] == A[i]:
                continue
            for j in range(1, n + 1):
                if j in (i, i + 1):
                    continue
                def post(v, i=i, j=j):
                    w = apply_token(("e", i), v)
                    return (omega_pair(w, i, j) + omega_pair(w, i + 1, j)).is_zero()
                def pre(v, i=i, j=j):
                    w = omega_pair(v, i, j) + omega_pair(v, i + 1, j)
                    return apply_token(("e", i), w).is_zero()
                yield f"post i={i},j={j}", post
                yield f"pre i={i},j={j}", pre

    run("contraction_kills_casimir_sum", contraction_kills_casimir_sum())

    def disjoint():
        for quad in combinations_with_replacement(range(1, n + 1), 4):
            i, j, k, l = quad
            if len(set(quad)) != 4:
                continue
            def fn(v, i=i, j=j, k=k, l=l):
                lhs = omega_pair(omega_pair(v, k, l), i, j)
                rhs = omega_pair(omega_pair(v, i, j), k, l)
                return lhs == rhs
            yield f"[{i}{j},{k}{l}]", fn

    run("casimir_disjoint_commute", disjoint())

    def triple():
        for i in range(0, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(j + 1, n + 1):
                    def fn(v, i=i, j=j, k=k):
                        a = omega_pair(omega_pair(v, i, k), i, j) + omega_pair(
                            omega_pair(v, i, k), j, k
                        )
                        b = omega_pair(
                            omega_pair(v, i, j) + omega_pair(v, j, k), i, k
                        )
                        return a == b
                    yield f"({i},{j},{k})", fn

    run("casimir_triple_commutator", triple())

    def dots_commute():
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                def fn(v, i=i, j=j):
                    return y_apply(y_apply(v, i), j) == y_apply(y_apply(v, j), i)
                yield f"y{i}y{j}", fn

    run("dots_commute", dots_commute())

    def flip():
        for i in range(1, n):
            if A[i - 1] != A[i]:
                continue
            def fn(v, i=i):
                return apply_token(("c", i), v) == omega_pair(v, i, i + 1)
            yield f"i={i}", fn

    run("flip_equals_casimir", flip())

    def contraction():
        for i in range(1, n):
            if A[i - 1] == A[i]:
                continue
            def fn(v, i=i):
                return apply_token(("e", i), v) == omega_pair(v, i, i + 1).scale(-1)
            yield f"i={i}", fn

    run("contraction_equals_minus_casimir", contraction())

    def dot_crossing():
        for i in range(1, n):
            if A[i - 1] != A[i]:
                continue
            def one(v, i=i):
                lhs = apply_token(("c", i), y_apply(v, i)) - y_apply(
                    apply_token(("c", i), v), i + 1
                )
                return lhs == v.scale(-1)
            def two(v, i=i):
                lhs = apply_token(("c", i), y_apply(v, i + 1)) - y_apply(
                    apply_token(("c", i), v), i
                )
                return lhs == v
            yield f"s{i} y{i}", one
            yield f"s{i} y{i+1}", two

    run("dot_crossing_commutator", dot_crossing())

    def hat_dot_crossing():
        for i in range(1, n):
            if A[i - 1] == A[i]:
                continue
            def one(v, i=i):
                lhs = apply_token(("c", i), y_apply(v, i)) - y_apply(
                    apply_token(("c", i), v), i + 1
                )
                return lhs == apply_token(("eh", i), v)
            def two(v, i=i):
                lhs = apply_token(("c", i), y_apply(v, i + 1)) - y_apply(
                    apply_token(("c", i), v), i
                )
                return lhs == apply_token(("eh", i), v).scale(-1)
            yield f"sh{i} y{i}", one
            yield f"sh{i} y{i+1}", two

    run("hat_dot_crossing_commutator", hat_dot_crossing())

    def contraction_kills_dot_sum():
        for i in range(1, n):
            if A[i - 1] == A[i]:
                continue
            for kind in ("e", "eh"):
                def post(v, i=i, kind=kind):
                    return apply_token(
                        (kind, i), y_apply(v, i) + y_apply(v, i + 1)
                    ).is_zero()
                def pre(v, i=i, kind=kind):
                    w = apply_token((kind, i), v)
                    return (y_apply(w, i) + y_apply(w, i + 1)).is_zero()
                yield f"{kind}{i} post", post
                yield f"{kind}{i} pre", pre

    run("contraction_kills_dot_sum", contraction_kills_dot_sum())

    return report

"""Exact gl_N tensor-space oracle.

Vectors live in M (x) V^{a_1} (x) ... (x) V^{a_n} where V is the vector
representation with basis v_1..v_N, V^{-1} its dual, and M is the
parabolic highest-weight module with one-dimensional highest weight space
of weight -delta(eps_1+...+eps_m) for the two-block parabolic
gl_m + gl_n + (upper right), N = m + n (GlContext). The negative
nilradical u^- = span{E_ij : i > m >= j} is abelian, so PBW monomials
x^mu z in the symbols x_ij form a basis of M; module vectors are finite
exact combinations of basis keys (mu, slots). At m = 0, u^- is empty and
the highest weight is 0: M is the trivial module, on which every module
term below is zero, so one code path serves both. A coefficient is an int
whenever it is integral and a Fraction only when it is not: the action is
defined over Z[1/2], and halves come only from the N/2 shift of y at odd
N or from scaling by a non-integral Fraction.

Generators act by: crossings swap adjacent slots; cap-cups are the delta
maps v_c (x) v*_d -> delta_cd sum_k (k, k) (hatted: exchanging the two
orientations); y_i = sum_{0<=k<i} Omega_{ki} + N/2 with the split Casimir
Omega = sum_{a,b} E_ab (x) E_ba applied between factor k and slot i. The
elementary action on a slot is E_ab v_c = delta_bc v_a on V and
E_ab v*_c = -delta_ac v*_b on V^-1; on the module factor E_ab commutes
past the x-symbols via [E_ab, E_ij] = delta_bi E_aj - delta_ja E_ib down
to E_aa z = -delta z (a <= m) and E u^- multiplication.

A vector stores each basis key as one int: on k strands, key =
index(mu) * N^k + sum_j (s_j - 1) * N^(k-j), the slots as big-endian
base-N digits below the index of mu in one process-wide intern table
(_mu_id).
The table only grows; wbcat.clear_caches() leaves it, since live vectors
hold its indices. v.terms decodes the keys to (mu, slots) in the stored
order, so every public result reads as it would with tuple keys.

The token action is digit arithmetic on these ints. A crossing adds to a
key the offset that swaps its two digits. A cap-cup, where the two digits
agree, moves both to each d in turn; its N offsets are read from a small
table indexed by the two digits (_cup_offsets).
Between two slots, Omega is read from a cached table (_slot_pair) that
holds the slot rule's sum over (a, b) in closed form: the swap when the
slots have the same orientation, minus sum_d (d, d) when they are opposite
and hold one value, nothing otherwise; _pair_slots turns its rows into key
offsets. Between the module and a slot it is read from a second cached
table (_module_slot) keyed by the slot value and the mu index: every new
slot value d with the module action that goes with it, already signed and
as a key offset. That action (_module_action) is one pass over the symbols
of mu by the commutator rule. A dot y_i splits into a slot part,
N/2 + sum_{1<=k<i} Omega_{ki}, which depends on the slot digits alone and
is a cached row of key offsets per slot code (_dot_slots), and the module
term Omega_{0i}, one omega_pair call. Both go into one accumulator, cleaned
once (exact.clean). Every other sum of vectors is one call of
exact.lincomb, the kernel shared with the rewriting engine.

This module is the independent route against which the diagrammatic
engines are checked: represent() pushes a decorated element through its
generator word and must satisfy every defining relation. Besides the
generator tokens, apply_token takes ("o", j, k) for Omega_{jk} between
factor j (0 = the module) and slot k, so that verify_section8 states each
operator identity of its table IDENTITIES as words and checks them all
through one prefix trie.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product

from .diagrams import (
    DecoratedElement,
    cyclotomic_monomials,
    generator_token,
    orseq,
    swap_seq,
    word_for_monomial,
)
from .exact import Record, clean, lincomb, nullspace, num, sparse_rank
from .relations import _OFF  # position i, strand j off it


class GlContext(Record):
    # N = m + n follows from (m, n); m = 0 is the trivial module
    FIELDS = __slots__ = ("m", "n", "delta", "N")
    ARGS = 3

    def __init__(self, m: int, n: int, delta: int = 0):
        if m < 0 or n < 1:
            raise ValueError("N must be positive" if m + n < 1 else "need m >= 0 and n >= 1")
        self._freeze(m, n, delta, m + n)

    @classmethod
    def trivial(cls, N: int) -> "GlContext":
        return cls(0, N)

    @classmethod
    def parabolic(cls, m: int, n: int, delta: int) -> "GlContext":
        if m < 1 or n < 1:
            raise ValueError("parabolic kind needs m, n >= 1")
        return cls(m, n, delta)


# the PBW monomials mu of every key so far, by index; append-only (live
# vectors hold the indices), so it is not a cache and clear_caches leaves it
_MUS = [()]
_MU_IDS = {(): 0}


def _mu_id(mu: tuple) -> int:
    """The index of the sorted monomial mu in _MUS, appending it if new."""
    i = _MU_IDS.get(mu)
    if i is None:
        i = _MU_IDS[mu] = len(_MUS)
        _MUS.append(mu)
    return i


def _key(ctx: GlContext, A: tuple, mu, slots) -> int:
    """The int key of x^mu z (x) v_slots (module docstring), refusing
    anything that is not a basis key of M (x) V^{(x)A}."""
    slots = tuple(slots)
    N = ctx.N
    if len(slots) != len(A):
        raise ValueError("slot count mismatch")
    if not all(s.__class__ is int and 1 <= s <= N for s in slots):
        raise ValueError("slot index out of range")
    for i, j in mu:
        if not (ctx.m < i <= N and 1 <= j <= ctx.m):
            raise ValueError(f"x_{i}{j} is not a symbol of u^-")
    key = _mu_id(tuple(sorted(mu)))
    for s in slots:
        key = key * N + s - 1
    return key


@lru_cache(maxsize=None)
def _slot_tuple(N: int, k: int, code: int) -> tuple:
    """The slots of a slot code on k strands, the inverse of _key's digits."""
    slots = []
    for _ in range(k):
        code, d = divmod(code, N)
        slots.append(d + 1)
    return tuple(reversed(slots))


@lru_cache(maxsize=None)
def _module_action(m: int, delta: int, a: int, b: int, mu: tuple):
    """E_ab acting on x^mu z in the parabolic module: ((coeff, mu'), ...)
    with int coefficients, in one pass over the symbols of mu.

    In u^- (a > m >= b), E_ab multiplies by x_ab. In the Levi factor, it
    acts on each symbol by [E_ab, x_ij] = delta_bi x_aj - delta_ja x_ib and
    on z by -delta where a = b <= m. In u^+ it kills z, so E_ab x_1..x_r z
    = sum_t x_<t [E_ab, x_t] x_>t z, each [E_ab, x_t] in the Levi factor."""
    if a > m >= b:
        return ((1, tuple(sorted(mu + ((a, b),)))),)
    acc = {}
    get = acc.get

    def levi(a, b, head, tail, c):
        # c * x^head * (E_ab of the Levi factor on x^tail z), into acc
        if a == b <= m and delta:
            nu = head + tail
            acc[nu] = get(nu, 0) - delta * c
        for s in range(len(tail) - 1, -1, -1):
            i, j = tail[s]
            if b == i:
                nu = tuple(sorted(head + tail[:s] + ((a, j),) + tail[s + 1:]))
                acc[nu] = get(nu, 0) + c
            if j == a:
                nu = tuple(sorted(head + tail[:s] + ((i, b),) + tail[s + 1:]))
                acc[nu] = get(nu, 0) - c

    if a <= m < b:
        for t in range(len(mu) - 1, -1, -1):
            i, j = mu[t]
            if b == i:
                levi(a, j, mu[:t], mu[t + 1:], 1)
            if j == a:
                levi(i, b, mu[:t], mu[t + 1:], -1)
    else:
        levi(a, b, (), mu, 1)
    return tuple((c, nu) for nu, c in clean(acc).items())


def _slot_E(up: bool, a: int, b: int, e: int):
    """E_ab on a slot holding v_e (up) or v*_e: (e', sign), or None for 0."""
    if up:
        return (a, 1) if b == e else None
    return (b, -1) if a == e else None


@lru_cache(maxsize=None)
def _slot_pair(N: int, up_j: bool, up_k: bool, e: int, c: int):
    """Omega = sum_{a,b} E_ab (x) E_ba on slots j < k holding e and c:
    ((e', c', sign), ...). By the slot rule (_slot_E), the swap (c, e, +1)
    when the slots have the same orientation, (d, d, -1) for d = 1..N when
    they are opposite and e = c, nothing otherwise."""
    if up_j == up_k:
        return ((c, e, 1),)
    if e == c:
        return tuple((d, d, -1) for d in range(1, N + 1))
    return ()


@lru_cache(maxsize=None)
def _cup_offsets(N: int, w: int):
    """Per pair p = N * d + d' of a digit d of weight N * w and the next
    digit d' (weight w): the offsets that set both digits to each value in
    turn where d = d', none where they differ."""
    out = []
    for p in range(N * N):
        d, rest = divmod(p, N + 1)
        out.append(tuple((t - d) * (N + 1) * w for t in range(N)) if not rest else ())
    return tuple(out)


@lru_cache(maxsize=None)
def _module_slot(N: int, m: int, delta: int, up: bool, w: int, P: int, c: int, mid: int):
    """Omega between the module and the slot of digit weight w holding v_c
    (up) or v*_c, on keys with monomial index mid below P = N^k:
    ((offset, coeff), ...), the slot becoming d and x^mu z becoming
    coeff * x^nu z, with int coefficients."""
    mu = _MUS[mid]
    out = []
    for d in range(1, N + 1):
        # E_ba sends the slot from c to d (by _slot_E); E_ab acts on M
        a, b = (c, d) if up else (d, c)
        for c2, nu in _module_action(m, delta, a, b, mu):
            out.append(((_mu_id(nu) - mid) * P + (d - c) * w, c2 if up else -c2))
    return tuple(out)


def _pair_slots(N: int, up_j: bool, up_k: bool, key: int, wj: int, wk: int):
    """Omega between the slots of digit weights wj > wk on a key: (offset,
    sign) per _slot_pair term (no two share an offset)."""
    e, c = key // wj % N, key // wk % N
    for e2, c2, sgn in _slot_pair(N, up_j, up_k, e + 1, c + 1):
        yield (e2 - 1 - e) * wj + (c2 - 1 - c) * wk, sgn


@lru_cache(maxsize=None)
def _dot_slots(N: int, A: tuple, i: int, code: int):
    """N/2 + sum_{1 <= k < i} Omega_{ki} on the slot code alone:
    ((offset, coeff), ...), clean (exact.clean). The slot part of y_i."""
    n = len(A)
    acc = {0: N // 2 if N % 2 == 0 else Fraction(N, 2)}
    get = acc.get
    up_i, w_i = A[i - 1] == 1, N ** (n - i)
    for k in range(1, i):
        for off, sgn in _pair_slots(N, A[k - 1] == 1, up_i, code, N ** (n - k), w_i):
            acc[off] = get(off, 0) + sgn
    return tuple(clean(acc).items())


def _vector(ctx: GlContext, A: tuple, terms: dict) -> "ModuleVector":
    """A ModuleVector over int keys that are already clean (exact.clean)."""
    v = ModuleVector.__new__(ModuleVector)
    v.ctx, v.A, v._terms = ctx, A, terms
    return v


class ModuleVector:
    """Exact vector in M (x) V^{(x)A}: int keys (module docstring) ->
    nonzero int, or Fraction when the coefficient is not integral; `terms`
    reads them as basis keys (mu, slots). Sums go through the kernel
    exact.lincomb. Vectors are never changed in place, so one may be
    shared: scale(1) returns the vector itself."""

    __slots__ = ("ctx", "A", "_terms")

    def __init__(self, ctx: GlContext, A, terms=None):
        self.ctx = ctx
        self.A = orseq(A)
        acc = {}
        for (mu, slots), c in (terms or {}).items():
            key = _key(ctx, self.A, mu, slots)
            acc[key] = acc.get(key, 0) + num(c)
        self._terms = clean(acc)

    @classmethod
    def basis_vector(cls, ctx, A, slots, mu=()) -> "ModuleVector":
        A = orseq(A)
        return _vector(ctx, A, {_key(ctx, A, mu, slots): 1})

    @property
    def terms(self) -> dict:
        """The terms as {(mu, slots): coefficient}, in the stored order."""
        N, k = self.ctx.N, len(self.A)
        P = N ** k
        out = {}
        for key, c in self._terms.items():
            mid, code = divmod(key, P)
            out[_MUS[mid], _slot_tuple(N, k, code)] = c
        return out

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, mu, slots) -> Fraction:
        try:
            key = _key(self.ctx, self.A, mu, slots)
        except ValueError:  # not a basis key of this space
            return Fraction(0)
        return Fraction(self._terms.get(key, 0))

    def __add__(self, other) -> "ModuleVector":
        return self._plus(1, other)

    def __sub__(self, other) -> "ModuleVector":
        return self._plus(-1, other)

    def _plus(self, c, other) -> "ModuleVector":
        if other.ctx is not self.ctx and other.ctx != self.ctx:
            raise ValueError("module mismatch")
        if other.A != self.A:
            raise ValueError("object mismatch")
        return _vector(self.ctx, self.A, lincomb(((1, self._terms), (c, other._terms))))

    def scale(self, c) -> "ModuleVector":
        if c.__class__ is int and c == 1:
            return self
        return _vector(self.ctx, self.A, lincomb(((c, self._terms),)))

    def __eq__(self, other):
        if isinstance(other, ModuleVector):
            return (
                (self.ctx is other.ctx or self.ctx == other.ctx)
                and self.A == other.A
                and self._terms == other._terms
            )
        return NotImplemented

    def __reduce__(self):
        # the keys index this process's monomial table: rebuild from (mu, slots)
        return ModuleVector, (self.ctx, self.A, self.terms)

    def __repr__(self):
        if not self._terms:
            return "ModuleVector(0)"
        bits = ", ".join(
            f"{c}*x{list(mu)}z(x){list(slots)}"
            for (mu, slots), c in sorted(self.terms.items())
        )
        return f"ModuleVector({bits})"


def zero_vector(ctx, A) -> ModuleVector:
    return ModuleVector(ctx, A)


def apply_E_at(a: int, b: int, v: ModuleVector, pos: int) -> ModuleVector:
    """E_ab of v's module acting on factor `pos` (0 = module, k >= 1 =
    slot k) only; 1 <= a, b <= N."""
    ctx = v.ctx
    N, n = ctx.N, len(v.A)
    if not (1 <= a <= N and 1 <= b <= N):
        raise ValueError("E_ab needs 1 <= a, b <= N")
    if not 0 <= pos <= n:
        raise ValueError("factor index out of range")
    acc = {}
    get = acc.get
    if pos == 0:
        if not ctx.m:  # the trivial module: every E_ab acts on it as 0
            return _vector(ctx, v.A, acc)
        P = N ** n
        for key, coeff in v._terms.items():
            mid, code = divmod(key, P)
            for c2, nu in _module_action(ctx.m, ctx.delta, a, b, _MUS[mid]):
                k2 = _mu_id(nu) * P + code
                acc[k2] = get(k2, 0) + coeff * c2
    else:
        up, w = v.A[pos - 1] == 1, N ** (n - pos)
        for key, coeff in v._terms.items():
            e = key // w % N + 1
            hit = _slot_E(up, a, b, e)
            if hit:
                k2 = key + (hit[0] - e) * w
                acc[k2] = get(k2, 0) + hit[1] * coeff
    return _vector(ctx, v.A, clean(acc))


def apply_E(a: int, b: int, v: ModuleVector) -> ModuleVector:
    """Coproduct action of E_ab of v's module on the whole tensor product."""
    parts = [(1, apply_E_at(a, b, v, pos)._terms) for pos in range(len(v.A) + 1)]
    return _vector(v.ctx, v.A, lincomb(parts))


def omega_pair(v: ModuleVector, j: int, k: int, acc: dict | None = None):
    """Omega_{jk}: the split Casimir between factors j < k (0 = module).

    With `acc`, a dict of int keys -> coefficient over the same object, the
    terms of Omega_{jk} v are added into it and None is returned; the
    caller cleans it (exact.clean)."""
    if j > k:
        j, k = k, j
    if j == k or k == 0:
        raise ValueError("need two distinct factors, at least one slot")
    ctx = v.ctx
    N, n = ctx.N, len(v.A)
    up_k, w_k = v.A[k - 1] == 1, N ** (n - k)
    own = acc is None
    if own:
        acc = {}
    get = acc.get
    if j == 0:
        m, delta = ctx.m, ctx.delta
        if not m:  # the trivial module: every E_ab acts on it as 0
            return _vector(ctx, v.A, acc) if own else None
        P = N ** n
        for key, coeff in v._terms.items():
            for off, c2 in _module_slot(N, m, delta, up_k, w_k, P, key // w_k % N + 1, key // P):
                k2 = key + off
                acc[k2] = get(k2, 0) + coeff * c2
    else:
        up_j, w_j = v.A[j - 1] == 1, N ** (n - j)
        for key, coeff in v._terms.items():
            for off, sgn in _pair_slots(N, up_j, up_k, key, w_j, w_k):
                k2 = key + off
                acc[k2] = get(k2, 0) + sgn * coeff
    return _vector(ctx, v.A, clean(acc)) if own else None


def y_apply(v: ModuleVector, i: int) -> ModuleVector:
    """y_i = N/2 + sum_{1 <= k < i} Omega_{ki} (one _dot_slots row per term)
    + Omega_{0i} (omega_pair), summed in one accumulator."""
    if not 1 <= i <= len(v.A):
        raise ValueError("dot index out of range")
    ctx, A = v.ctx, v.A
    N = ctx.N
    P = N ** len(A)
    acc = {}
    get = acc.get
    for key, coeff in v._terms.items():
        for off, c in _dot_slots(N, A, i, key % P):
            k2 = key + off
            acc[k2] = get(k2, 0) + c * coeff
    omega_pair(v, 0, i, acc)
    return _vector(ctx, A, clean(acc))


def apply_token(tok, v: ModuleVector) -> ModuleVector:
    """Apply one word token: a generator token (see
    diagrams.word_for_monomial) or ("o", j, k), the split Casimir
    omega_pair(v, j, k) between factor j (0 = the module) and slot k."""
    kind = tok[0]
    if kind == "y":
        return y_apply(v, tok[1])
    i = tok[1]
    ctx, A = v.ctx, v.A
    n = len(A)
    if kind == "o":
        if not (0 <= i <= n and 1 <= tok[2] <= n):
            raise ValueError("token index out of range")
        return omega_pair(v, i, tok[2])
    if not 1 <= i <= n - 1:
        raise ValueError("token index out of range")
    # slots i and i + 1 are the digits of weights N * w and w of a key:
    # d_i = q // N % N and d_{i+1} = q % N with q = key // w, and q % NN is
    # the pair N * d_i + d_{i+1}
    N = ctx.N
    NN, w = N * N, N ** (n - i - 1)
    if kind == "c":
        s = (N - 1) * w  # swapping adds (d_{i+1} - d_i) * (N * w - w)
        terms = {}
        for key, c in v._terms.items():
            q = key // w
            terms[key + (q % N - q // N % N) * s] = c
        return _vector(ctx, swap_seq(A, i), terms)
    if kind in ("e", "eh"):
        if A[i - 1] == A[i]:
            raise ValueError("generator does not exist for this object")
        newA = A if kind == "e" else swap_seq(A, i)
        cups = _cup_offsets(N, w)
        acc = {}
        get = acc.get
        for key, c in v._terms.items():
            for off in cups[key // w % NN]:
                k2 = key + off
                acc[k2] = get(k2, 0) + c
        return _vector(ctx, newA, clean(acc))
    raise ValueError(f"unknown token {tok!r}")


def apply_word(word, v: ModuleVector) -> ModuleVector:
    for tok in word:
        v = apply_token(tok, v)
    return v


def word_trie(words):
    """Prefix trie of token words: a node is (indices of the words that end
    there, {token: child node}); the root stands for the empty word."""
    root = ([], {})
    for i, word in enumerate(words):
        node = root
        for tok in word:
            node = node[1].setdefault(tok, ([], {}))
        node[0].append(i)
    return root


def apply_trie(trie, v: ModuleVector):
    """Yield (i, apply_word(words[i], v)) for every word of
    word_trie(words), depth first: each prefix is applied once, and one
    vector is held per depth."""

    def walk(node, w):
        ends, children = node
        for i in ends:
            yield i, w
        for tok, child in children.items():
            yield from walk(child, apply_token(tok, w))

    return walk(trie, v)


def apply_generator(kind: str, i: int, v: ModuleVector) -> ModuleVector:
    """Named generator (s/e/sh/eh/y) with orientation preconditions, as in
    diagrams.generator_token."""
    return apply_token(generator_token(kind, v.A, i), v)


def represent(x: DecoratedElement, v: ModuleVector) -> ModuleVector:
    """Push a decorated element through its generator word."""
    if x.bottom != v.A:
        raise ValueError("boundary mismatch")
    parts = [(c, apply_word(word_for_monomial(m), v)._terms) for m, c in x.terms.items()]
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
    for a in range(ctx.m):
        w[a] -= ctx.delta
    for i, j in mu:
        w[i - 1] += 1
        w[j - 1] -= 1
    for k, a in enumerate(orseq(A)):
        w[slots[k] - 1] += a
    return tuple(w)


def module_monomials(ctx: GlContext, max_deg: int):
    """PBW monomials of u^- of degree <= max_deg (just () at m = 0)."""
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
    For the least d in (1, 2) at which the rows [y^0 v .. y^d v], one per key
    of every test vector v, have a nonzero nullspace, that nullspace is one
    vector with 1 at column d: the monic coefficients.
    """
    data = []
    for v in spanning_vectors(ctx, (orientation,), max_deg=2):
        v1 = y_apply(v, 1)
        data.append((v, v1, y_apply(v1, 1)))
    for d in (1, 2):
        rows = [
            dict(enumerate(w._terms.get(key, 0) for w in ws[: d + 1]))
            for ws in data
            for key in set().union(*(w._terms for w in ws[: d + 1]))
        ]
        null = nullspace(rows, d + 1)
        if null:
            return tuple(Fraction(null[0].get(k, 0)) for k in range(d + 1))
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
    per regular monomial; one int-numbered column per pair (beta, int key).
    The rows are first built on the inputs that are first of their S_m x S_n
    orbit (levi_inputs). Where m, n >= k, those with the most far slots
    come first (a stable sort), and the rows are ranked after inputs 1, 2,
    4, 8, ... and after the last; elsewhere, where a full rank is not
    expected, they are ranked once after the last. A column subset has rank
    at most the full rank, which is at most the number of rows, so a full
    rank at any of these checkpoints is the answer; one at which some row
    is still empty cannot reach it and is not ranked. Otherwise the
    remaining inputs are added to the same rows and the whole matrix is
    ranked once.
    Why the first pass is expected to suffice, and why this order and these
    checkpoints: docs/decisions.md.

    The basis words share most of their prefixes, so each input goes
    through their word_trie once (apply_trie). On the first input every
    image is also computed by represent, the one-element path, and a
    mismatch raises ArithmeticError.
    """
    A = orseq(A)
    ctx = GlContext.parabolic(params.m, params.n, params.delta)
    monos = cyclotomic_monomials(A)
    trie = word_trie([word_for_monomial(mono) for mono in monos])
    rows = [{} for _ in monos]
    cols = {}

    def add(beta, check):
        v = ModuleVector.basis_vector(ctx, A, beta)
        for i, w in apply_trie(trie, v):
            if check and represent(DecoratedElement.from_monomial(monos[i]), v) != w:
                raise ArithmeticError(f"prefix walk and represent differ on row {i}")
            row = rows[i]
            for key, c in w._terms.items():
                row[cols.setdefault((beta, key), len(cols))] = c

    # A full rank is expected only where m, n >= k, the size condition of
    # the basis theorem; only there are the inputs reordered and ranked at
    # checkpoints. A far slot is an up strand holding a value in m+1..N or
    # a down strand one in 1..m: there the module term Omega_{0k} of a dot
    # makes a new x-symbol at its first step.
    m = ctx.m
    firsts, rest = levi_inputs(m, ctx.N, len(A))
    expect_full = min(m, ctx.n) >= len(A)
    if expect_full:
        firsts.sort(key=lambda beta: sum((b > m) == (a == 1) for a, b in zip(A, beta)), reverse=True)
    for count, beta in enumerate(firsts, 1):
        add(beta, count == 1)
        checkpoint = count == len(firsts) or expect_full and count & (count - 1) == 0
        if checkpoint and all(rows) and sparse_rank(rows) == len(rows):
            return len(rows)
    for beta in rest:
        add(beta, False)
    return sparse_rank(rows)


# ---------------------------------------------------------------------------
# Operator-identity report.

# index families of the object A, one index tuple per table entry
_FACTORS = lambda k, first: lambda A: list(combinations(range(first, len(A) + 1), k))
_SLIDES = lambda A: [(i, *jk) for i in range(1, len(A)) for jk in _FACTORS(2, 0)(A)]
_SAME = lambda A: [(i,) for i in range(1, len(A)) if A[i - 1] == A[i]]
_OPPOSITE = lambda A: [(i,) for i in range(1, len(A)) if A[i - 1] != A[i]]
_OPPOSITE_OFF = lambda A: [(i, j) for i, j in _OFF(A) if A[i - 1] != A[i]]
_KILLS = lambda A: [(i, kind) for i, in _OPPOSITE(A) for kind in ("e", "eh")]


def _swapped(i, x):
    """The factor that factor x becomes under the crossing at position i."""
    return {i: i + 1, i + 1: i}.get(x, x)


# check id -> (index family, indices -> [(label, lhs word, [(coeff, rhs word)])]);
# the claim is lhs v = sum coeff * word v, words in application order as in
# relations.RELATIONS, with ("o", j, k) for Omega_{jk} (apply_token)
IDENTITIES = {
    "crossing_slides_casimir": (_SLIDES, lambda i, j, k: [
        (f"i={i},j={j},k={k}", [("o", j, k), ("c", i)],
         [(1, [("c", i), ("o", _swapped(i, j), _swapped(i, k))])])]),
    "crossing_commutes_far_dots": (_OFF, lambda i, j: [
        (f"i={i},j={j}", [("y", j), ("c", i)], [(1, [("c", i), ("y", j)])])]),
    # [e_i, Omega_{ij} + Omega_{i+1,j}] = 0 from either side
    "contraction_kills_casimir_sum": (_OPPOSITE_OFF, lambda i, j: [
        (f"post i={i},j={j}", [("e", i), ("o", i, j)], [(-1, [("e", i), ("o", i + 1, j)])]),
        (f"pre i={i},j={j}", [("o", i, j), ("e", i)], [(-1, [("o", i + 1, j), ("e", i)])])]),
    "casimir_disjoint_commute": (_FACTORS(4, 1), lambda i, j, k, l: [
        (f"[{i}{j},{k}{l}]", [("o", k, l), ("o", i, j)], [(1, [("o", i, j), ("o", k, l)])])]),
    # [Omega_{ij} + Omega_{jk}, Omega_{ik}] = 0
    "casimir_triple_commutator": (_FACTORS(3, 0), lambda i, j, k: [
        (f"({i},{j},{k})", [("o", i, k), ("o", i, j)],
         [(-1, [("o", i, k), ("o", j, k)]), (1, [("o", i, j), ("o", i, k)]),
          (1, [("o", j, k), ("o", i, k)])])]),
    "dots_commute": (_FACTORS(2, 1), lambda i, j: [
        (f"y{i}y{j}", [("y", i), ("y", j)], [(1, [("y", j), ("y", i)])])]),
    "flip_equals_casimir": (_SAME, lambda i: [(f"i={i}", [("c", i)], [(1, [("o", i, i + 1)])])]),
    "contraction_equals_minus_casimir": (_OPPOSITE, lambda i: [
        (f"i={i}", [("e", i)], [(-1, [("o", i, i + 1)])])]),
    "dot_crossing_commutator": (_SAME, lambda i: [
        (f"s{i} y{i}", [("y", i), ("c", i)], [(1, [("c", i), ("y", i + 1)]), (-1, [])]),
        (f"s{i} y{i + 1}", [("y", i + 1), ("c", i)], [(1, [("c", i), ("y", i)]), (1, [])])]),
    "hat_dot_crossing_commutator": (_OPPOSITE, lambda i: [
        (f"sh{i} y{i}", [("y", i), ("c", i)], [(1, [("c", i), ("y", i + 1)]), (1, [("eh", i)])]),
        (f"sh{i} y{i + 1}", [("y", i + 1), ("c", i)],
         [(1, [("c", i), ("y", i)]), (-1, [("eh", i)])])]),
    # e_i (y_i + y_{i+1}) = 0 = (y_i + y_{i+1}) e_i, and the same for eh_i
    "contraction_kills_dot_sum": (_KILLS, lambda i, kind: [
        (f"{kind}{i} post", [("y", i), (kind, i)], [(-1, [("y", i + 1), (kind, i)])]),
        (f"{kind}{i} pre", [(kind, i), ("y", i)], [(-1, [(kind, i), ("y", i + 1)])])]),
}


def identity_instances(check_id: str, A):
    """[(label, lhs word, [(coeff, rhs word)])] of one IDENTITIES entry on A."""
    family, build = IDENTITIES[check_id]
    return [inst for ix in family(orseq(A)) for inst in build(*ix)]


def verify_section8(ctx: GlContext, A, max_deg: int = 2) -> dict:
    """Check every IDENTITIES instance on the degree <= max_deg spanning set
    (at m = 0, the trivial module, the full tensor basis): check id ->
    {"instances": instances times vectors, "failures": ["label on key"]},
    failures in instance order, then vector order.

    Every word of every instance goes into one word_trie, so each distinct
    prefix is applied once per vector. An instance with a single rhs word of
    coefficient 1 compares the two images; any other is one exact.lincomb."""
    A = orseq(A)
    vectors = list(spanning_vectors(ctx, A, max_deg))
    claims = [(cid, inst) for cid in IDENTITIES for inst in identity_instances(cid, A)]
    words = [w for _, (_, lhs, rhs) in claims for w in [lhs] + [w for _, w in rhs]]
    trie = word_trie(words)
    bad = [[] for _ in claims]  # per instance, the first key of each vector it fails on
    for v in vectors:
        images = [None] * len(words)
        for i, w in apply_trie(trie, v):
            images[i] = w
        images = iter(images)
        for keys, (_, (_, _, rhs)) in zip(bad, claims):
            lhs = next(images)
            if len(rhs) == 1 and rhs[0][0] == 1:
                ok = lhs == next(images)
            else:
                ok = not lincomb([(1, lhs._terms)] + [(-c, next(images)._terms) for c, _ in rhs])
            if not ok:
                keys.append(next(iter(v.terms), None))
    report = {cid: {"instances": 0, "failures": []} for cid in IDENTITIES}
    for keys, (cid, (label, _, _)) in zip(bad, claims):
        report[cid]["instances"] += len(vectors)
        report[cid]["failures"] += [f"{label} on {key}" for key in keys]
    return report

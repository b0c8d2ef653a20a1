"""Rewriting engine: products and regular normal forms, exactly.

Every element is a rational linear combination of regular monomials
(diagram + bottom dots gamma + top dots eta, with dots homed at bottom
through/arc-right and top arc-left positions only), with an int
coefficient when it is integral and a Fraction otherwise. All computation
is driven by one primitive: apply a single generator token on top of a
regular monomial. The closed forms used are

  crossing over stored dots (a dots at x, b at x+1):
    s_x  y_x^a y_{x+1}^b = y_x^b y_{x+1}^a s_x - D(y_x^a y_{x+1}^b)
    sh_x y_x^a y_{x+1}^b = y_x^b y_{x+1}^a sh_x
                           + (-1)^a sum_{l=1}^{a+b} (-1)^l y_x^{a+b-l} eh_x y_x^{l-1}
  with D the divided difference, D(y1^a y2^b) = sum_{k=b}^{a-1} y1^k y2^{a+b-1-k}
  for a > b (antisymmetric, 0 for a = b);

  single-dot exchange across one crossing (both directions of travel):
    y_{i+1} s_i = s_i y_i + 1        y_i s_i  = s_i y_{i+1} - 1
    y_{i+1} sh_i = sh_i y_i - eh_i   y_i sh_i = sh_i y_{i+1} + eh_i
    s_i y_i  = y_{i+1} s_i - 1       s_i y_{i+1} = y_i s_i + 1
    sh_i y_i = y_{i+1} sh_i + eh_i   sh_i y_{i+1} = y_i sh_i - eh_i

  arc flips: (y_i + y_{i+1}) edot_i = 0 = edot_i (y_i + y_{i+1}),
  applied through the factorization of any diagram with the relevant arc;

  contraction: edot_x y_x^k edot_x' = w_coeff(B, x, k) x (single cap-cup),
  where the coefficient polynomial in y_1..y_{x-1} comes from the W-series
  calculus below.

The W-series is handled in the coordinates S(u) = (W(u) + u)/u, where the
three inductive steps are exact at every truncation order:
  prefix (1):            S = 1 + sum_k omega_k u^{-k-1}
  last two entries equal: S(P) = S(P[:-1]) / (1 - h^2), h = 1/(u - y_{i-1})
  last two entries differ: S(P) = 1 / S(P', -u) with P' flipping the last entry
(the last line is the series involution f -> f(-u)/(1 - u^{-1} f(-u))
rewritten in S-coordinates).

push_dot is the one entry point for a dot from either side. A dot that may
not rest where it enters goes to _transport, which carries it along a
strand down from the top or up from the bottom, through the cached
canonical generator word of the diagram (or the word moving a far arc's
endpoint next to its partner), one crossing at a time. The main term
travels with coefficient +1 and every correction consumes the dot, so all
recursion is on strictly fewer dots and terminates without a depth bound.

Every sum is one call of the kernel: DecoratedElement.lincomb checks the
boundaries and sums all parts in exact.lincomb into one fresh dict, never
modifying a part. A generator reaches an element in one way only, through
apply_word and the memoized tok_mono; that includes the top dots and
hatted cap-cups of the closed forms above.

The engine recomputes the same small pieces many times over, so the pure
ones are memoized with functools.lru_cache, unbounded: tok_mono (a token on
a monomial), diagrams.compose_diagrams, diagrams.token_diagram and the word
behind diagrams.word_for_monomial, next to the W-series, prefix and
arc-transport tables. Monomials are interned (diagrams.Monomial), so a
lookup of a monomial met before hits on identity, and is_regular is
decided once per monomial. A token on one monomial with coefficient 1 is
the tok_mono element itself, shared; the public results (multiply,
element_for_word, and cyclotomic.cyclo_reduce) are fresh elements.
wbcat.clear_caches() empties every such cache and the intern table, e.g.
between long computations on different objects.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .diagrams import (
    DecoratedElement,
    Monomial,
    WBDiagram,
    chain,
    compose_diagrams,
    identity_diagram,
    is_regular,
    json_field,
    orseq,
    token_diagram,
    word_for_diagram,
    word_for_monomial,
)
from .exact import LaurentSeries, MultiPoly, Record, rat, series_div, series_negate_u, series_one
from .relations import instances as relation_instances
from .relations import resolve_coeff

# ---------------------------------------------------------------------------
# Parameter sequences.


class OmegaRangeError(ValueError):
    pass


@lru_cache(maxsize=None)
def _omega_mn(m: int, n: int, delta: int, k: int) -> Fraction:
    """omega_k from the level-two recursion
    omega_k = (b1 + b2) omega_{k-1} - b1 b2 omega_{k-2}, run as a loop."""
    prev = Fraction(m + n)
    if k == 0:
        return prev
    cur = Fraction(-delta * m) + Fraction((m + n) ** 2, 2)
    b1 = Fraction(-delta) + Fraction(m + n, 2)
    b2 = Fraction(n - m, 2)
    s, pr = b1 + b2, b1 * b2
    for _ in range(k - 1):
        prev, cur = cur, s * cur - pr * prev
    return cur


class OmegaSpec(Record):
    """The parameter sequence omega_k: explicit list or (m,n,delta)-derived.
    The trivial module of gl_N is (0, N, 0): the recursion then gives
    N (N/2)^k."""

    FIELDS = __slots__ = ("kind", "values", "m", "n", "delta")

    def __init__(self, kind: str, values: tuple = (), m: int = 0, n: int = 0, delta: int = 0):
        self._freeze(kind, values, m, n, delta)

    @classmethod
    def from_list(cls, values) -> "OmegaSpec":
        return cls("list", tuple(rat(v) for v in values))

    @classmethod
    def from_mn_delta(cls, m: int, n: int, delta: int) -> "OmegaSpec":
        return cls("mn_delta", m=m, n=n, delta=delta)

    @classmethod
    def trivial(cls, N: int) -> "OmegaSpec":
        return cls.from_mn_delta(0, N, 0)

    def __call__(self, k: int) -> Fraction:
        if k < 0:
            raise ValueError("omega index must be nonnegative")
        if self.kind == "list":
            if k >= len(self.values):
                raise OmegaRangeError(
                    f"omega_{k} requested but only {len(self.values)} values given"
                )
            return self.values[k]
        if self.kind == "mn_delta":
            return _omega_mn(self.m, self.n, self.delta, k)
        raise ValueError(f"unknown omega kind {self.kind!r}")

    def to_json(self) -> dict:
        if self.kind == "list":
            return {"kind": "list", "values": [str(v) for v in self.values]}
        return {"kind": "mn_delta", "m": self.m, "n": self.n, "delta": self.delta}

    @classmethod
    def from_json(cls, obj: dict) -> "OmegaSpec":
        kind = json_field(obj, "kind", str, "a string")
        if kind == "list":
            what = "a list of integers or rational strings"
            return cls.from_list(json_field(obj, "values", list, what, (int, str)))
        if kind == "mn_delta":
            m, n, delta = (json_field(obj, k, int, "an integer") for k in ("m", "n", "delta"))
            return cls.from_mn_delta(m, n, delta)
        if kind == "trivial":
            return cls.trivial(json_field(obj, "N", int, "an integer"))
        raise ValueError(f"unknown omega kind {kind!r}")


# ---------------------------------------------------------------------------
# W-series calculus in S = (W + u)/u coordinates.


def _series_one_minus_h2(nvars: int, order: int, yindex: int) -> LaurentSeries:
    """1 - h^2 with h = 1/(u - y_yindex) = sum_k y^k u^{-k-1}."""
    coeffs = [MultiPoly.const(nvars, 1), MultiPoly.zero(nvars)]
    y = MultiPoly.var(nvars, yindex)
    ypow = MultiPoly.const(nvars, 1)
    for c in range(2, order + 1):
        coeffs.append(ypow.scale(-(c - 1)))
        ypow = ypow * y
    return LaurentSeries(nvars, coeffs[: order + 1])


def _series_star_S(S: LaurentSeries) -> LaurentSeries:
    """S*(u) = 1 / S(-u)."""
    return series_div(series_one(S.nvars, S.order), series_negate_u(S))


@lru_cache(maxsize=None)
def _w_series(prefix: tuple, order: int, omega: OmegaSpec) -> LaurentSeries:
    """S-series for the given orientation prefix, to the given order."""
    i = len(prefix)
    nv = i - 1
    if i == 1:
        if prefix[0] == 1:
            coeffs = [MultiPoly.const(0, 1)] + [
                MultiPoly.const(0, omega(k)) for k in range(order)
            ]
            return LaurentSeries(0, coeffs)
        return _series_star_S(_w_series((1,), order, omega))
    if prefix[-1] == prefix[-2]:
        base = _w_series(prefix[:-1], order, omega)
        ext = LaurentSeries(nv, [c.extend(nv) for c in base.coeffs])
        return series_div(ext, _series_one_minus_h2(nv, order, i - 1))
    flipped = prefix[:-1] + (prefix[-2],)
    return _series_star_S(_w_series(flipped, order, omega))


def _w_poly(B, x: int, k: int, omega: OmegaSpec) -> MultiPoly:
    """u^{-k-1} coefficient of S for the length-x prefix of B, i.e. the
    contraction coefficient of edot_x y_x^k edot_x: a polynomial in
    y_1..y_{x-1}."""
    prefix = tuple(B[:x])
    return _w_series(prefix, k + 1, omega)[k + 1]


def w_coeff(A, i: int, k: int, omega: OmegaSpec) -> MultiPoly:
    A = orseq(A)
    if not 1 <= i <= len(A) - 1:
        raise ValueError(f"w_coeff position i = {i} is outside 1..{len(A) - 1}")
    if A[i - 1] == A[i]:
        raise ValueError("w_coeff needs opposite orientations at i, i+1")
    if k < 0:
        raise ValueError("negative series index")
    return _w_poly(A, i, k, omega)


# ---------------------------------------------------------------------------
# Dot transport machinery.


def _divided_difference(a: int, b: int):
    """D(y1^a y2^b) as a list of (k, l, sign) with k+l = a+b-1."""
    if a == b:
        return []
    if a > b:
        return [(k, a + b - 1 - k, 1) for k in range(b, a)]
    return [(k, a + b - 1 - k, -1) for k in range(a, b)]


def _step(s_variant: bool, pos: int, i: int):
    """Dot at pos in {i, i+1} crosses crossing i, in either direction of
    travel; (new_pos, corr_sign, corr_has_cap)."""
    if pos == i + 1:
        return i, (1 if s_variant else -1), not s_variant
    return i + 1, (-1 if s_variant else 1), not s_variant


def _fold_above(tokens, base: WBDiagram):
    """Compose tokens over base as pure matchings; (loops, diagram)."""
    loops = 0
    cur = base
    for tok in tokens:
        l, cur = compose_diagrams(token_diagram(tok, cur.top), cur)
        loops += l
    return loops, cur


@lru_cache(maxsize=None)
def _prefixes(D: WBDiagram):
    """(word, prefix diagrams P_0..P_L) of the canonical word of D."""
    word = word_for_diagram(D)
    return word, chain(identity_diagram(D.bottom), word)


def _add_at(vec, p: int, k: int = 1):
    return vec[: p - 1] + (vec[p - 1] + k,) + vec[p:]


def _zero_at(vec, p: int):
    return vec[: p - 1] + (0,) + vec[p:]


def _transport(p: int, m: Monomial, omega: OmegaSpec, word, pres, cap=None):
    """Carry a dot at position p along the crossings of word, with pres the
    prefix diagrams of word. With cap None the dot enters at the top of
    pres[-1] = m.diagram and walks the word downward; otherwise it enters at
    the bottom of pres[0] and walks upward, and m.diagram = cap o pres[-1].
    Returns (final position of the dot, corrections): the corrections are
    the normalized terms in which a crossing consumed the dot."""
    D = m.diagram
    parts = []
    pos = p
    steps = range(len(word), 0, -1) if cap is None else range(1, len(word) + 1)
    for l in steps:
        kind, i = word[l - 1]
        if pos not in (i, i + 1):
            continue
        if kind != "c":
            raise AssertionError("dot transport met a cap")
        below = pres[l - 1].top
        pos, sign, has_cap = _step(below[i - 1] == below[i], pos, i)
        repl = [("eh", i)] if has_cap else []
        loops, C = _fold_above(repl + list(word[l:]), pres[l - 1])
        if cap is not None:
            more, C = compose_diagrams(cap, C)
            loops += more
        corr = normalize_mono(Monomial(C, m.gamma, m.eta), omega)
        parts.append((sign * omega(0) ** loops, corr))
    return pos, DecoratedElement.lincomb(D.bottom, D.top, parts)


@lru_cache(maxsize=None)
def _arc_transport(D: WBDiagram, side: str, p: int):
    """(word, prefixes, cap) routing endpoint p of a far arc {p, q} on side
    ("t" or "b") next to q. By the rest rule (WBDiagram.rests) a top dot
    enters a top arc at its right end and a bottom dot a bottom arc at its
    left end, so the dot goes from p > q to q + 1 on top and from p < q to
    q - 1 at the bottom. Top: D = T o Dh with the arc of Dh at {q, q+1},
    prefixes from Dh to D, cap None. Bottom: D = Dh o T with the arc of Dh
    at {q-1, q}, prefixes from the identity to T, cap Dh. T is the run of
    adjacent crossings between p and its destination, in the order that
    meets p first; a crossing is its own inverse, so Dh is D with the
    reversed word composed on T's side."""
    q = D.partner(side, p)[1]
    run = range(q + 1, p) if side == "t" else range(p, q - 1)
    if not run:
        raise AssertionError("arc transport needs a far arc entered at its resting end")
    word = tuple(("c", i) for i in run)
    if side == "t":
        loops, Dh = _fold_above(word[::-1], D)
        pres, cap = chain(Dh, word), None
        whole = pres[-1]
    else:
        pres = chain(identity_diagram(D.bottom), word)
        loops, cap = compose_diagrams(D, chain(identity_diagram(pres[-1].top), word[::-1])[-1])
        more, whole = compose_diagrams(cap, pres[-1])
        loops += more
    if loops or whole != D:
        raise AssertionError("arc transport does not rebuild the diagram")
    return word, pres, cap


def _dot_at(m: Monomial, side: str, p: int, k: int = 1) -> Monomial:
    """m with k more dots at point (side, p)."""
    if side == "b":
        return Monomial(m.diagram, _add_at(m.gamma, p, k), m.eta)
    return Monomial(m.diagram, m.gamma, _add_at(m.eta, p, k))


def push_dot(p: int, m: Monomial, omega: OmegaSpec, side: str = "t") -> DecoratedElement:
    """Regular form of y_p . m, the dot entering from the top (side "t"), or
    of m . y_p, the dot entering from the bottom (side "b")."""
    D = m.diagram
    if D.rests(side, p):
        return DecoratedElement.from_monomial(_dot_at(m, side, p))
    end, q = D.partner(side, p)
    if end != side:  # a through strand from the top: rest at its bottom end
        pos, corr = _transport(p, m, omega, *_prefixes(D))
        return corr + DecoratedElement.from_monomial(_dot_at(m, "b", pos))
    # an arc end: the dot moves to the partner end q with sign -1
    main = DecoratedElement.from_monomial(_dot_at(m, side, q), -1)
    if abs(p - q) == 1:
        return main
    pos, corr = _transport(p, m, omega, *_arc_transport(D, side, p))
    if pos != (q + 1 if q < p else q - 1):
        raise AssertionError("arc transport ended off the arc")
    return corr + main


def normalize_mono(m: Monomial, omega: OmegaSpec) -> DecoratedElement:
    """Re-home every dot that may not rest where it is; regular monomials
    pass through."""
    if is_regular(m):
        return DecoratedElement.from_monomial(m)
    D = m.diagram
    bad_bottom = [i for i in range(1, D.n + 1) if m.gamma[i - 1] and not D.rests("b", i)]
    bad_top = [i for i in range(1, D.n + 1) if m.eta[i - 1] and not D.rests("t", i)]
    gamma, eta = list(m.gamma), list(m.eta)
    for i in bad_bottom:
        gamma[i - 1] = 0
    for i in bad_top:
        eta[i - 1] = 0
    word = [("y", i) for i in bad_top for _ in range(m.eta[i - 1])]
    el = apply_word(word, DecoratedElement.from_monomial(Monomial(D, gamma, eta)), omega)
    for i in bad_bottom:
        for _ in range(m.gamma[i - 1]):
            parts = [(c, push_dot(i, mm, omega, "b")) for mm, c in el.terms.items()]
            el = DecoratedElement.lincomb(D.bottom, D.top, parts)
    return el


# ---------------------------------------------------------------------------
# Generator tokens on monomials.


def _crossing(x: int, m: Monomial, omega: OmegaSpec) -> DecoratedElement:
    D = m.diagram
    B = D.top
    s_variant = B[x - 1] == B[x]
    a, b = m.eta[x - 1], m.eta[x]
    eta_rest = _zero_at(_zero_at(m.eta, x), x + 1)
    loops, S = compose_diagrams(token_diagram(("c", x), B), D)
    if loops:
        raise AssertionError("a crossing closed a loop")
    if D.partner("t", x) == ("t", x + 1):  # own arc, so not s_variant
        if b:
            raise AssertionError("dot stored at the right end of a top arc")
        main = Monomial(S, m.gamma, _add_at(eta_rest, x, a))
        parts = [((-1) ** a, DecoratedElement.from_monomial(main))]
    else:
        main = Monomial(S, m.gamma, _add_at(_add_at(eta_rest, x, b), x + 1, a))
        parts = [(1, DecoratedElement.from_monomial(main))]
    if s_variant:
        for k, l, sgn in _divided_difference(a, b):
            corr = Monomial(D, m.gamma, _add_at(_add_at(eta_rest, x, k), x + 1, l))
            parts.append((-sgn, normalize_mono(corr, omega)))
        return DecoratedElement.lincomb(D.bottom, S.top, parts)
    base = DecoratedElement.from_monomial(Monomial(D, m.gamma, eta_rest))
    for l in range(1, a + b + 1):
        word = [("y", x)] * (l - 1) + [("eh", x)] + [("y", x)] * (a + b - l)
        parts.append(((-1) ** (a + l), apply_word(word, base, omega)))
    return DecoratedElement.lincomb(D.bottom, S.top, parts)


def _edot(kind: str, x: int, m: Monomial, omega: OmegaSpec) -> DecoratedElement:
    # the cap-cup exists: tok_mono built token_diagram first
    D = m.diagram
    B = D.top
    if D.partner("t", x) == ("t", x + 1):
        # contraction: the cap closes over the top arc {x, x+1}
        k = m.eta[x - 1]
        if m.eta[x]:
            raise AssertionError("dot stored at the right end of a top arc")
        loops, C = compose_diagrams(token_diagram((kind, x), B), D)
        if loops != 1:
            raise AssertionError("contraction did not close exactly one loop")
        base = DecoratedElement.from_monomial(Monomial(C, m.gamma, _zero_at(m.eta, x)))
        parts = []
        for exp, c in _w_poly(B, x, k, omega).coeffs.items():
            word = [("y", j) for j in range(len(exp), 0, -1) for _ in range(exp[j - 1])]
            parts.append((c, apply_word(word, base, omega)))
        return DecoratedElement.lincomb(D.bottom, C.top, parts)
    if m.eta[x - 1] > 0:
        return _edot_preclear(kind, x, x, m, omega)
    if m.eta[x] > 0:
        return _edot_preclear(kind, x, x + 1, m, omega)
    loops, C = compose_diagrams(token_diagram((kind, x), B), D)
    if loops:
        raise AssertionError("cap-cup on open strands closed a loop")
    return normalize_mono(Monomial(C, m.gamma, m.eta), omega)


def _edot_preclear(kind, x, at, m, omega) -> DecoratedElement:
    """Move one stored dot off position `at` (x or x+1) before contracting:
    with P the arc partner of `at` and m1 = m less that dot, y_P . m1 =
    Corr - m, so m = Corr - y_P . m1, and y_P commutes past the cap."""
    D = m.diagram
    P = D.partner("t", at)[1]
    if P in (x, x + 1):
        raise AssertionError("pre-clearing a dot from the contracted arc")
    m1 = _dot_at(m, "t", at, -1)
    corr = tok_mono(("y", P), m1, omega) + DecoratedElement.from_monomial(m)
    t1 = apply_element_token((kind, x), corr, omega)
    t2 = apply_word(((kind, x), ("y", P)), DecoratedElement.from_monomial(m1), omega)
    return t1 - t2


@lru_cache(maxsize=None)
def tok_mono(tok, m: Monomial, omega: OmegaSpec) -> DecoratedElement:
    """Regular form of the token `tok` applied on top of the monomial m.

    Memoized, so one returned element is shared by every caller that asks
    for the same product; apply_element_token hands it on as is for a
    single monomial with coefficient 1. No caller mutates an element's
    `terms`, `bottom` or `top`: `lincomb` (behind `scale`, `+`, `-`, and
    cyclo_reduce) builds new elements, and all else only reads. Keep it
    that way."""
    kind, i = tok
    if kind == "y":
        return push_dot(i, m, omega)
    token_diagram(tok, m.top)  # refuses an unknown kind or a position off m.top
    if kind == "c":
        return _crossing(i, m, omega)
    return _edot(kind, i, m, omega)


def apply_element_token(tok, el: DecoratedElement, omega: OmegaSpec):
    """tok applied on top of el. On a single monomial with coefficient 1
    this is the memoized tok_mono element itself, shared, not copied."""
    if len(el.terms) == 1:
        ((m, c),) = el.terms.items()
        if c == 1:
            return tok_mono(tok, m, omega)
        parts = [(c, tok_mono(tok, m, omega))]
    else:
        parts = [(c, tok_mono(tok, m, omega)) for m, c in el.terms.items()]
    top = el.top if tok[0] == "y" else token_diagram(tok, el.top).top
    return DecoratedElement.lincomb(el.bottom, top, parts)


def apply_word(word, el: DecoratedElement, omega: OmegaSpec) -> DecoratedElement:
    """The tokens of word applied on top of el, in order. The result may be
    a memoized element: read it, never change it."""
    for tok in word:
        el = apply_element_token(tok, el, omega)
    return el


# ---------------------------------------------------------------------------
# Public algebra operations.


def multiply(x: DecoratedElement, y: DecoratedElement, omega: OmegaSpec):
    """x . y (y applied first; its top must match x's bottom)."""
    if x.bottom != y.top:
        raise ValueError("boundary mismatch in product")
    parts = [(c, apply_word(word_for_monomial(m), y, omega)) for m, c in x.terms.items()]
    return DecoratedElement.lincomb(y.bottom, x.top, parts)


def reduce(el: DecoratedElement, omega: OmegaSpec) -> DecoratedElement:
    """Regular normal form of an arbitrary decorated element. An element
    whose terms are all regular, such as every product, is its own normal
    form and comes back as it is, not copied."""
    if all(map(is_regular, el.terms)):
        return el
    parts = [(c, normalize_mono(m, omega)) for m, c in el.terms.items()]
    return DecoratedElement.lincomb(el.bottom, el.top, parts)


def element_for_word(word, A, omega: OmegaSpec) -> DecoratedElement:
    """The element of the word on A, as a fresh element of its own."""
    el = apply_word(word, DecoratedElement.unit(orseq(A)), omega)
    return DecoratedElement._of(el.bottom, el.top, dict(el.terms))


def check_relation(A, relation_id: str, omega: OmegaSpec) -> bool:
    """True iff every instance of the relation on A reduces to equality."""
    A = orseq(A)
    insts = relation_instances(relation_id, A)
    if not insts:
        raise ValueError(f"relation {relation_id!r} has no instances on {A}")
    return check_instances(A, insts, omega)


def check_instances(A, insts, omega: OmegaSpec) -> bool:
    """True iff every relation instance (lhs, [(coeff, word)]) on A reduces
    to equality."""
    unit = DecoratedElement.unit(orseq(A))
    for lhs, rhs in insts:
        left = apply_word(lhs, unit, omega)
        parts = [(resolve_coeff(c, omega), apply_word(word, unit, omega)) for c, word in rhs]
        first = parts[0][1]
        if left != DecoratedElement.lincomb(first.bottom, first.top, parts):
            return False
    return True

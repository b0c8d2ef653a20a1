"""Oriented walled-Brauer diagrams and dotted monomials.

Objects are orientation sequences A of +1/-1 entries. A diagram A -> B is a
perfect matching on the 2n boundary points (n bottom, n top) in which every
strand runs from a source to a sink, the one rule of sources_and_sinks.
Composition stacks vertically, bottom first: in X*Y the diagram Y sits below
X, and closed loops produced by stacking are removed and counted (the caller
multiplies by omega_0 per loop).

A monomial is a diagram with dot counts gamma on the bottom boundary and
eta on the top boundary, meaning y^eta . D . y^gamma. It is *regular* when
every dot rests where WBDiagram.rests allows: gamma_i = 0 at every left
endpoint of a bottom arc and eta_i = 0 except at left endpoints of top arcs.
Regular monomials are the canonical spanning set; with binary dots there
are 2^n n! of them between any two objects.

Monomials are interned: Monomial(D, gamma, eta) looks the new object up in
a table keyed by the monomial itself and returns the stored one when there
is one, so equal monomials built by any route are one object, and the memo
caches keyed by monomials (tok_mono, the word memo, the stack eliminations,
every dict of terms) find them by identity without a Python-level __eq__.
Two facts of a monomial, is_regular and dot_stack, are decided on first use
and kept on it. wbcat.clear_caches() empties the table; equality and hash
stay structural, so monomials from before the clearing still meet the new
ones as equal keys.

A DecoratedElement is an exact linear combination of monomials; every sum
of scaled elements is one call of DecoratedElement.lincomb, which checks
the boundaries and sums in exact.lincomb, the kernel shared with the gl_N
oracle.

word_for_diagram factors any diagram into generator tokens (crossings and
cap-cup generators): route bottom arcs to adjacent slots, cap them, re-route
the created cups and the through strands to their targets. The factorization
is self-checked by refolding.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from . import exact
from .exact import num, rat

# ---------------------------------------------------------------------------
# Orientation sequences.


def orseq(entries) -> tuple:
    """`entries` as a tuple of int +1/-1. A tuple that already is one comes
    back unchanged, so objects passed along are shared, not copied."""
    if type(entries) is tuple and all(type(a) is int and a * a == 1 for a in entries):
        return entries
    A = tuple(int(a) for a in entries)
    if not all(a in (1, -1) for a in A):
        raise ValueError(f"orientation entries must be +1/-1: {A}")
    return A


def rt_counts(A) -> tuple:
    """(r, t) = (#up, #down)."""
    r = sum(1 for a in A if a == 1)
    return r, len(A) - r


def all_orseqs(r: int, t: int):
    """All distinct arrangements of r ups and t downs."""
    return sorted(set(permutations((1,) * r + (-1,) * t)), reverse=True)


def swap_seq(A, i: int) -> tuple:
    """A with entries i, i+1 (1-based) exchanged."""
    B = list(A)
    B[i - 1], B[i] = B[i], B[i - 1]
    return tuple(B)


# ---------------------------------------------------------------------------
# Diagrams. Points are ('b', i) / ('t', i), 1-based.


def sources_and_sinks(A, B) -> tuple:
    """(sources, sinks) of the diagrams A -> B, each in point order. A strand
    runs from a source (a bottom +1 or top -1 point) to a sink (a top +1 or
    bottom -1 point); there are n of each."""
    flow = [(("b", i), a) for i, a in enumerate(A, 1)]
    flow += [(("t", i), -b) for i, b in enumerate(B, 1)]
    return [p for p, f in flow if f == 1], [p for p, f in flow if f == -1]


class WBDiagram:
    """Perfect matching between bottom object `bottom` and top object `top`."""

    __slots__ = ("bottom", "top", "pairs", "_partner", "_hash")

    def __init__(self, bottom, top, pairs):
        bottom = orseq(bottom)
        top = orseq(top)
        if rt_counts(bottom) != rt_counts(top):
            raise ValueError("bottom and top must have the same (r,t)")
        n = len(bottom)
        canon = tuple(sorted(tuple(sorted(p)) for p in pairs))
        partner = {}
        for p, q in canon:
            if p in partner or q in partner or p == q:
                raise ValueError("not a perfect matching")
            partner[p] = q
            partner[q] = p
        if len(partner) != 2 * n or not all(1 <= i <= n for _, i in partner):
            raise ValueError(f"arcs must pair up the points b1..b{n}, t1..t{n}: {canon}")
        sources = set(sources_and_sinks(bottom, top)[0])
        for p, q in canon:
            if (p in sources) == (q in sources):
                arc = f"{p[0]}{p[1]}-{q[0]}{q[1]}"
                ends = "sources" if p in sources else "sinks"
                raise ValueError(f"arc {arc} joins two {ends}, not a source to a sink")
        self.bottom = bottom
        self.top = top
        self.pairs = canon
        self._partner = partner
        self._hash = hash((bottom, top, canon))

    @property
    def n(self) -> int:
        return len(self.bottom)

    def partner(self, side: str, i: int):
        return self._partner[(side, i)]

    def bottom_kind(self, i: int) -> str:
        """'through', 'arcL' (left end of bottom arc) or 'arcR'."""
        side, j = self._partner[("b", i)]
        if side == "t":
            return "through"
        return "arcL" if i < j else "arcR"

    def top_kind(self, i: int) -> str:
        side, j = self._partner[("t", i)]
        if side == "b":
            return "through"
        return "arcL" if i < j else "arcR"

    def rests(self, side: str, i: int) -> bool:
        """Whether a dot may rest at point (side, i) in a regular monomial:
        a bottom dot anywhere but at the left end of a bottom arc, a top dot
        only at the left end of a top arc. The one statement of the rule."""
        other, j = self._partner[(side, i)]
        return (other == side and i < j) == (side == "t")

    def bottom_arcs(self):
        """Bottom arcs as (left, right) position pairs, sorted by left."""
        return sorted(
            (i, j) for (s1, i), (s2, j) in self.pairs if s1 == s2 == "b"
        )

    def top_arcs(self):
        return sorted(
            (i, j) for (s1, i), (s2, j) in self.pairs if s1 == s2 == "t"
        )

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, WBDiagram):
            return (
                self.bottom == other.bottom
                and self.top == other.top
                and self.pairs == other.pairs
            )
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        arcs = ",".join(f"{s1}{i}-{s2}{j}" for (s1, i), (s2, j) in self.pairs)
        return f"WBDiagram({list(self.bottom)}->{list(self.top)}; {arcs})"


def identity_diagram(A) -> WBDiagram:
    A = orseq(A)
    return WBDiagram(A, A, [(("b", i), ("t", i)) for i in range(1, len(A) + 1)])


def permutation_diagram(A, dest) -> WBDiagram:
    """Through-strand diagram routing bottom i to top dest[i-1] (1-based values)."""
    A = orseq(A)
    n = len(A)
    top = [0] * n
    for i in range(1, n + 1):
        top[dest[i - 1] - 1] = A[i - 1]
    return WBDiagram(
        A, top, [(("b", i), ("t", dest[i - 1])) for i in range(1, n + 1)]
    )


def token_diagram(tok, A) -> WBDiagram:
    """The generator diagram for a word token acting on object A.

    Tokens: ('c', i) crossing (variant determined by the orientations),
    ('e', i) cap-cup keeping orientations, ('eh', i) cap-cup exchanging them.
    Memoized: equal calls return one shared diagram.
    """
    return _token_diagram(tuple(tok), orseq(A))


@lru_cache(maxsize=None)
def _token_diagram(tok, A) -> WBDiagram:
    kind, i = tok
    n = len(A)
    if not 1 <= i <= n - 1:
        raise ValueError(f"token index {i} out of range for n={n}")
    thru = [(("b", j), ("t", j)) for j in range(1, n + 1) if j not in (i, i + 1)]
    if kind == "c":
        pairs = thru + [(("b", i), ("t", i + 1)), (("b", i + 1), ("t", i))]
        return WBDiagram(A, swap_seq(A, i), pairs)
    if kind in ("e", "eh"):
        pairs = thru + [(("b", i), ("b", i + 1)), (("t", i), ("t", i + 1))]
        top = A if kind == "e" else swap_seq(A, i)
        return WBDiagram(A, top, pairs)
    raise ValueError(f"unknown token kind {kind!r}")


@lru_cache(maxsize=None)
def compose_diagrams(upper: WBDiagram, lower: WBDiagram):
    """Stack `upper` on top of `lower`; return (loop_count, composite).
    Memoized: equal calls return one shared diagram.

    One walk follows a strand through the glued middle, recording the middle
    points it passes: from each outer point an open strand, then from each
    unrecorded middle point a closed loop. A flag, not identity, tells the
    pieces apart: upper and lower may be one shared diagram."""
    if lower.top != upper.bottom:
        raise ValueError("boundary mismatch in composition")
    n = lower.n
    seen = set()

    def walk(side, j, in_lower):
        # the outer point where the strand leaves, or None when it closes
        while True:
            side, j = (lower if in_lower else upper).partner(side, j)
            if side == ("b" if in_lower else "t"):
                return side, j
            if j in seen:
                return None
            seen.add(j)
            in_lower = not in_lower
            side = "t" if in_lower else "b"

    pairs, ends = [], set()
    for start in [("b", i) for i in range(1, n + 1)] + [("t", i) for i in range(1, n + 1)]:
        if start not in ends:
            end = walk(*start, start[0] == "b")
            ends.add(end)
            pairs.append((start, end))
    loops = 0
    for j in range(1, n + 1):
        if j not in seen:
            seen.add(j)
            walk("b", j, False)
            loops += 1
    return loops, WBDiagram(lower.bottom, upper.top, pairs)


def chain(base: WBDiagram, word):
    """Prefix diagrams base, t_1 base, t_2 t_1 base, ... of word over base,
    composed as pure matchings; a closed loop is an error."""
    pres = [base]
    for tok in word:
        loops, nxt = compose_diagrams(token_diagram(tok, pres[-1].top), pres[-1])
        if loops:
            raise AssertionError("prefix of a factorization closed a loop")
        pres.append(nxt)
    return tuple(pres)


def enumerate_diagrams(A, B):
    """All diagrams A -> B, sorted by their canonical pairs: one per
    bijection from the n sources to the n sinks, so n! of them."""
    A = orseq(A)
    B = orseq(B)
    sources, sinks = sources_and_sinks(A, B)
    ds = [WBDiagram(A, B, zip(sources, perm)) for perm in permutations(sinks)]
    return sorted(ds, key=lambda D: D.pairs)


# ---------------------------------------------------------------------------
# Monomials and linear combinations.


_INT = {int}
_MONOMIALS = {}  # the intern table of Monomial


class Monomial:
    """y^eta . D . y^gamma: diagram with bottom dots gamma and top dots eta.
    Interned, with structural equality: see the module docstring."""

    __slots__ = ("diagram", "gamma", "eta", "_hash", "_regular", "_stack")

    def __new__(cls, diagram: WBDiagram, gamma=None, eta=None):
        n = len(diagram.bottom)
        gamma = (0,) * n if gamma is None else tuple(gamma)
        eta = (0,) * n if eta is None else tuple(eta)
        dots = gamma + eta
        # on every call: a bool or a float may equal a stored int
        if not set(map(type, dots)) <= _INT:
            for name, vec in (("gamma", gamma), ("eta", eta)):
                if not all(type(d) is int for d in vec):
                    raise ValueError(f"{name} must be a list of integers, got {list(vec)!r}")
        m = object.__new__(cls)
        m.diagram, m.gamma, m.eta = diagram, gamma, eta
        m._hash = hash((diagram, gamma, eta))
        m._regular = m._stack = None
        old = _MONOMIALS.setdefault(m, m)
        # a hit equals a stored monomial, which passed these checks
        if old is m and (len(gamma) != n or len(eta) != n or dots and min(dots) < 0):
            del _MONOMIALS[m]
            if len(gamma) != n or len(eta) != n:
                raise ValueError("dot vector length mismatch")
            raise ValueError("negative dot count")
        return old

    def __reduce__(self):
        return Monomial, (self.diagram, self.gamma, self.eta)

    @staticmethod
    def cache_clear() -> None:
        """Empty the intern table."""
        _MONOMIALS.clear()

    @property
    def bottom(self):
        return self.diagram.bottom

    @property
    def top(self):
        return self.diagram.top

    def dots(self) -> int:
        return sum(self.gamma) + sum(self.eta)

    def sort_key(self):
        return (self.diagram.pairs, self.gamma, self.eta)

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, Monomial):
            return (
                self.diagram == other.diagram
                and self.gamma == other.gamma
                and self.eta == other.eta
            )
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Monomial({self.diagram!r}, gamma={self.gamma}, eta={self.eta})"


def is_regular(m: Monomial) -> bool:
    """Every dot of m rests where WBDiagram.rests allows it. Decided once
    per monomial."""
    if m._regular is None:
        rests = m.diagram.rests
        m._regular = True
        for i, (g, e) in enumerate(zip(m.gamma, m.eta), 1):
            if (g and not rests("b", i)) or (e and not rests("t", i)):
                m._regular = False
                break
    return m._regular


def dot_stack(m: Monomial):
    """The first point ("b", j) or ("t", j), by j and bottom before top,
    that holds two or more dots of m; () when there is none. Decided once
    per monomial."""
    if m._stack is None:
        m._stack = ()
        for j, (g, e) in enumerate(zip(m.gamma, m.eta), 1):
            if g >= 2 or e >= 2:
                m._stack = ("b" if g >= 2 else "t", j)
                break
    return m._stack


def identity_monomial(A) -> Monomial:
    return Monomial(identity_diagram(A))


class DecoratedElement:
    """Finite Q-linear combination of monomials sharing bottom/top objects.

    Coefficients are exact: an int when integral, a Fraction otherwise.
    Every sum of scaled elements goes through lincomb."""

    __slots__ = ("bottom", "top", "terms")

    def __init__(self, bottom, top, terms=None):
        self.bottom = orseq(bottom)
        self.top = orseq(top)
        terms = terms or {}
        if any(m.bottom != self.bottom or m.top != self.top for m in terms):
            raise ValueError("monomial boundary mismatch")
        self.terms = exact.lincomb(((1, terms),))

    @classmethod
    def _of(cls, bottom, top, terms: dict) -> "DecoratedElement":
        """The element on the dict `terms` itself, unchecked and uncopied: the
        caller hands over a fresh, clean dict of monomials bottom -> top."""
        el = cls.__new__(cls)
        el.bottom, el.top, el.terms = bottom, top, terms
        return el

    @classmethod
    def from_monomial(cls, m: Monomial, coeff=1) -> "DecoratedElement":
        c = num(coeff)
        return cls._of(m.bottom, m.top, {m: c} if c else {})

    @classmethod
    def unit(cls, A) -> "DecoratedElement":
        return cls.from_monomial(identity_monomial(A))

    @classmethod
    def lincomb(cls, bottom, top, parts) -> "DecoratedElement":
        """sum c * x over the (c, x) in parts, every x going bottom -> top
        (orientation tuples), summed by the kernel exact.lincomb: no part is
        modified, so parts may be shared (memoized) elements."""
        pairs = []
        for c, x in parts:
            if x.bottom != bottom or x.top != top:
                raise ValueError("boundary mismatch")
            pairs.append((c, x.terms))
        return cls._of(bottom, top, exact.lincomb(pairs))

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Filtration degree: max total dot count (-1 for zero)."""
        return max((m.dots() for m in self.terms), default=-1)

    def __add__(self, other) -> "DecoratedElement":
        return DecoratedElement.lincomb(self.bottom, self.top, ((1, self), (1, other)))

    def __sub__(self, other) -> "DecoratedElement":
        return DecoratedElement.lincomb(self.bottom, self.top, ((1, self), (-1, other)))

    def scale(self, c) -> "DecoratedElement":
        return DecoratedElement.lincomb(self.bottom, self.top, ((c, self),))

    def __eq__(self, other):
        if isinstance(other, DecoratedElement):
            return (
                self.bottom == other.bottom
                and self.top == other.top
                and self.terms == other.terms
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.bottom, self.top, frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0].sort_key())

    def __repr__(self):
        if not self.terms:
            return "DecoratedElement(0)"
        return "DecoratedElement(" + " + ".join(
            f"{c}*{m!r}" for m, c in self.sorted_terms()
        ) + ")"


def generator_token(kind: str, A, i: int) -> tuple:
    """The word token of the named generator at i on object A.

    kind: 's', 'e', 'sh', 'eh' (or 'ŝ', 'ê') or 'y'. s exists where entries
    i, i+1 of A are equal, the others where they differ; the hatted
    crossings/cap-cups send A to A with entries i, i+1 exchanged.
    """
    kind = {"ŝ": "sh", "ê": "eh"}.get(kind, kind)
    n = len(A)
    if kind == "y":
        if not 1 <= i <= n:
            raise ValueError(f"y index {i} out of range")
        return ("y", i)
    if kind not in ("s", "sh", "e", "eh"):
        raise ValueError(f"unknown generator kind {kind!r}")
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range")
    if (kind == "s") != (A[i - 1] == A[i]):
        raise ValueError("generator does not exist for this object")
    return ("c", i) if kind in ("s", "sh") else (kind, i)


def generator(kind: str, A, i: int) -> DecoratedElement:
    """Single-generator element on object A (kinds as in generator_token);
    y_i is the identity with one bottom dot on strand i."""
    A = orseq(A)
    tok = generator_token(kind, A, i)
    if tok[0] == "y":
        gamma = tuple(1 if j == i else 0 for j in range(1, len(A) + 1))
        return DecoratedElement.from_monomial(Monomial(identity_diagram(A), gamma))
    return DecoratedElement.from_monomial(Monomial(token_diagram(tok, A)))


def cyclotomic_monomials(A):
    """All regular monomials A -> A with binary dots: 2^n n! of them."""
    A = orseq(A)
    out = []
    for D in enumerate_diagrams(A, A):
        free = [(side, i) for side in "bt" for i in range(1, D.n + 1) if D.rests(side, i)]
        for mask in range(1 << len(free)):
            gamma = [0] * D.n
            eta = [0] * D.n
            for b, (side, i) in enumerate(free):
                if mask >> b & 1:
                    (gamma if side == "b" else eta)[i - 1] = 1
            out.append(Monomial(D, gamma, eta))
    out.sort(key=lambda m: m.sort_key())
    return out


# ---------------------------------------------------------------------------
# Canonical generator words.


def sort_word(arrangement):
    """Crossing tokens building the permutation diagram with the given
    final arrangement (arrangement[pos] = bottom strand at top position pos,
    0-based), in application order."""
    arr = list(arrangement)
    swaps = []
    changed = True
    while changed:
        changed = False
        for p in range(len(arr) - 1):
            if arr[p] > arr[p + 1]:
                arr[p], arr[p + 1] = arr[p + 1], arr[p]
                swaps.append(p)
                changed = True
    return [("c", p + 1) for p in reversed(swaps)]


@lru_cache(maxsize=None)
def word_for_diagram(D: WBDiagram):
    """Factor D into generator tokens, in application order (bottom first).

    Layout: route each bottom arc's endpoints to an adjacent slot pair
    (2j-1, 2j) and the through strands to the tail; cap every adjacent pair
    with 'e' or 'eh' (whichever makes the created cup's orientations match
    the j-th top arc); route cups and through strands to their final top
    positions. The result is refolded and checked against D.
    """
    n = D.n
    barcs = D.bottom_arcs()
    tarcs = D.top_arcs()
    q = len(barcs)
    thru = [i for i in range(1, n + 1) if D.bottom_kind(i) == "through"]

    slot = {}
    for j, (p, r) in enumerate(barcs, start=1):
        slot[p] = 2 * j - 1
        slot[r] = 2 * j
    for k, u in enumerate(thru, start=1):
        slot[u] = 2 * q + k

    arr_bot = [0] * n
    for pos, s in slot.items():
        arr_bot[s - 1] = pos - 1
    word = sort_word(arr_bot)

    A1 = [0] * n
    for pos, s in slot.items():
        A1[s - 1] = D.bottom[pos - 1]

    dest = [0] * n
    for j, (x, y_) in enumerate(tarcs, start=1):
        dest[2 * j - 2] = x
        dest[2 * j - 1] = y_
    for k, u in enumerate(thru, start=1):
        side, w = D.partner("b", u)
        dest[2 * q + k - 1] = w

    for j, (x, y_) in enumerate(tarcs, start=1):
        below = (A1[2 * j - 2], A1[2 * j - 1])
        want = (D.top[x - 1], D.top[y_ - 1])
        word.append(("e" if below == want else "eh", 2 * j - 1))

    arr_top = [0] * n
    for s in range(1, n + 1):
        arr_top[dest[s - 1] - 1] = s - 1
    word.extend(sort_word(arr_top))

    if chain(identity_diagram(D.bottom), word)[-1] != D:
        raise AssertionError("canonical word does not rebuild the diagram")
    return tuple(word)


def word_for_monomial(m: Monomial) -> list:
    """Generator tokens for y^eta . D . y^gamma in application order, as a
    fresh list (the word itself is memoized)."""
    return list(_monomial_word(m))


@lru_cache(maxsize=None)
def _monomial_word(m: Monomial) -> tuple:
    bottom = tuple(("y", i) for i, g in enumerate(m.gamma, 1) for _ in range(g))
    top = tuple(("y", i) for i, e in enumerate(m.eta, 1) for _ in range(e))
    return bottom + word_for_diagram(m.diagram) + top


# ---------------------------------------------------------------------------
# JSON codecs.


def _point_name(pt) -> str:
    return f"{pt[0]}{pt[1]}"


def _point_parse(name):
    if not isinstance(name, str) or name[:1] not in ("b", "t") or not name[1:].isdigit():
        raise ValueError(f"bad point name {name!r}")
    return (name[0], int(name[1:]))


def _is(val, kind) -> bool:
    return isinstance(val, kind) and not isinstance(val, bool)


def json_field(obj, name: str, kind, what: str, item=None, default=None):
    """obj[name], checked to be a `kind` (a list of `item`s when item is
    given; a bool never passes for an int). A missing field gives default."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object with field {name!r}, got {obj!r}")
    val = obj.get(name, default)
    if not _is(val, kind) or (item is not None and not all(_is(v, item) for v in val)):
        raise ValueError(f"field {name!r} must be {what}, got {val!r}")
    return val


def _ints(obj, name: str, default=None) -> list:
    return json_field(obj, name, list, "a list of integers", int, default)


def diagram_to_json(D: WBDiagram) -> dict:
    return {
        "bottom": list(D.bottom),
        "top": list(D.top),
        "arcs": [[_point_name(p), _point_name(q)] for p, q in D.pairs],
    }


def diagram_from_json(obj: dict) -> WBDiagram:
    what = "a list of point-name pairs"
    arcs = json_field(obj, "arcs", list, what, list)
    if any(len(arc) != 2 for arc in arcs):
        raise ValueError(f"field 'arcs' must be {what}, got {arcs!r}")
    pairs = [(_point_parse(p), _point_parse(q)) for p, q in arcs]
    return WBDiagram(_ints(obj, "bottom"), _ints(obj, "top"), pairs)


def monomial_to_json(m: Monomial) -> dict:
    out = diagram_to_json(m.diagram)
    out["gamma"] = list(m.gamma)
    out["eta"] = list(m.eta)
    return out


def monomial_from_json(obj: dict) -> Monomial:
    D = diagram_from_json(obj)
    return Monomial(D, _ints(obj, "gamma", [0] * D.n), _ints(obj, "eta", [0] * D.n))


def element_to_json(el: DecoratedElement) -> dict:
    return {
        "bottom": list(el.bottom),
        "top": list(el.top),
        "terms": [
            {"coeff": str(c), "monomial": monomial_to_json(m)}
            for m, c in el.sorted_terms()
        ],
    }


def element_from_json(obj: dict) -> DecoratedElement:
    """The element of a JSON object; exact coefficients only (an integer or
    a rational string such as "3/2"), never a float."""
    terms = {}
    for t in json_field(obj, "terms", list, "a list of terms"):
        m = monomial_from_json(json_field(t, "monomial", dict, "a monomial object"))
        c = rat(json_field(t, "coeff", (int, str), "an integer or a rational string"))
        terms[m] = terms.get(m, 0) + c
    return DecoratedElement(_ints(obj, "bottom"), _ints(obj, "top"), terms)

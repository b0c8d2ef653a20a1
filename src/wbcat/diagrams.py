"""Oriented walled-Brauer diagrams and dotted monomials.

Objects are orientation sequences A of +1/-1 entries. A diagram A -> B is a
perfect matching on the 2n boundary points (n bottom, n top) such that
through strands preserve orientation and horizontal arcs join opposite
orientations. Composition stacks vertically, bottom first: in X*Y the
diagram Y sits below X, and closed loops produced by stacking are removed
and counted (the caller multiplies by omega_0 per loop).

A monomial is a diagram with dot counts gamma on the bottom boundary and
eta on the top boundary, meaning y^eta . D . y^gamma. It is *regular* when
gamma_i = 0 at every left endpoint of a bottom arc and eta_i = 0 except at
left endpoints of top arcs. Regular monomials are the canonical spanning
set; with binary dots there are 2^n n! of them between any two objects.
A DecoratedElement is an exact linear combination of monomials; every sum of
scaled elements is one call of DecoratedElement.lincomb, which checks the
boundaries and sums in exact.lincomb, the kernel shared with the gl_N oracle.

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
        for (s1, i1), (s2, i2) in canon:
            o1 = bottom[i1 - 1] if s1 == "b" else top[i1 - 1]
            o2 = bottom[i2 - 1] if s2 == "b" else top[i2 - 1]
            if s1 == s2:
                if o1 == o2:
                    raise ValueError(f"horizontal arc with equal orientations at {(s1,i1)},{(s2,i2)}")
            else:
                if o1 != o2:
                    raise ValueError(f"through strand changes orientation at {(s1,i1)},{(s2,i2)}")
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
        if A[i - 1] == A[i]:
            raise ValueError("generator does not exist for this object")
        pairs = thru + [(("b", i), ("b", i + 1)), (("t", i), ("t", i + 1))]
        top = A if kind == "e" else swap_seq(A, i)
        return WBDiagram(A, top, pairs)
    raise ValueError(f"unknown token kind {kind!r}")


@lru_cache(maxsize=None)
def compose_diagrams(upper: WBDiagram, lower: WBDiagram):
    """Stack `upper` on top of `lower`; return (loop_count, composite).
    Memoized: equal calls return one shared diagram."""
    if lower.top != upper.bottom:
        raise ValueError("boundary mismatch in composition")
    n = lower.n
    seen_mid = set()

    def trace(start):
        # start: ('B', i) final bottom or ('T', i) final top; returns the
        # other endpoint of the strand through the glued middle boundary.
        if start[0] == "B":
            cur, in_lower = lower.partner("b", start[1]), True
        else:
            cur, in_lower = upper.partner("t", start[1]), False
        while True:
            side, j = cur
            if in_lower:
                if side == "b":
                    return ("B", j)
                seen_mid.add(j)
                cur, in_lower = upper.partner("b", j), False
            else:
                if side == "t":
                    return ("T", j)
                seen_mid.add(j)
                cur, in_lower = lower.partner("t", j), True

    done = set()
    pairs = []
    for start in [("B", i) for i in range(1, n + 1)] + [("T", i) for i in range(1, n + 1)]:
        if start in done:
            continue
        end = trace(start)
        done.add(start)
        done.add(end)
        pairs.append(
            (
                ("b", start[1]) if start[0] == "B" else ("t", start[1]),
                ("b", end[1]) if end[0] == "B" else ("t", end[1]),
            )
        )

    loops = 0
    for j0 in range(1, n + 1):
        if j0 in seen_mid:
            continue
        loops += 1
        j, via_upper = j0, True
        for _ in range(2 * n + 1):
            seen_mid.add(j)
            side, k = upper.partner("b", j) if via_upper else lower.partner("t", j)
            j, via_upper = k, not via_upper
            if j == j0 and via_upper:
                break
        else:
            raise AssertionError("loop trace did not close")
    return loops, WBDiagram(lower.bottom, upper.top, pairs)


def enumerate_diagrams(A, B):
    """All diagrams A -> B; there are exactly n! of them."""
    A = orseq(A)
    B = orseq(B)
    if rt_counts(A) != rt_counts(B):
        raise ValueError("mismatched (r,t)")
    n = len(A)
    points = [("b", i) for i in range(1, n + 1)] + [("t", i) for i in range(1, n + 1)]

    def ori(pt):
        side, i = pt
        return A[i - 1] if side == "b" else B[i - 1]

    def compatible(p, q):
        if p[0] == q[0]:
            return ori(p) != ori(q)
        return ori(p) == ori(q)

    out = []

    def rec(free, pairs):
        if not free:
            out.append(WBDiagram(A, B, pairs))
            return
        p = free[0]
        for idx in range(1, len(free)):
            q = free[idx]
            if compatible(p, q):
                rec(free[1:idx] + free[idx + 1 :], pairs + [(p, q)])

    rec(points, [])
    return out


# ---------------------------------------------------------------------------
# Monomials and linear combinations.


class Monomial:
    """y^eta . D . y^gamma: diagram with bottom dots gamma and top dots eta."""

    __slots__ = ("diagram", "gamma", "eta", "_hash")

    def __init__(self, diagram: WBDiagram, gamma=None, eta=None):
        n = diagram.n
        gamma = tuple(gamma) if gamma is not None else (0,) * n
        eta = tuple(eta) if eta is not None else (0,) * n
        if len(gamma) != n or len(eta) != n:
            raise ValueError("dot vector length mismatch")
        if any(g < 0 for g in gamma) or any(e < 0 for e in eta):
            raise ValueError("negative dot count")
        self.diagram = diagram
        self.gamma = gamma
        self.eta = eta
        self._hash = hash((diagram, gamma, eta))

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
    D = m.diagram
    for i in range(1, D.n + 1):
        if m.gamma[i - 1] and D.bottom_kind(i) == "arcL":
            return False
        if m.eta[i - 1] and D.top_kind(i) != "arcL":
            return False
    return True


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
    def from_monomial(cls, m: Monomial, coeff=1) -> "DecoratedElement":
        c = num(coeff)
        el = cls.__new__(cls)
        el.bottom, el.top, el.terms = m.bottom, m.top, {m: c} if c else {}
        return el

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
        el = cls.__new__(cls)
        el.bottom, el.top, el.terms = bottom, top, exact.lincomb(pairs)
        return el

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


def cyclotomic_monomials(A, B=None):
    """All regular monomials A -> B with binary dots: 2^n n! of them."""
    A = orseq(A)
    B = orseq(B) if B is not None else A
    out = []
    for D in enumerate_diagrams(A, B):
        gfree = [i for i in range(1, D.n + 1) if D.bottom_kind(i) != "arcL"]
        efree = [i for i in range(1, D.n + 1) if D.top_kind(i) == "arcL"]
        free = [("g", i) for i in gfree] + [("e", i) for i in efree]
        for mask in range(1 << len(free)):
            gamma = [0] * D.n
            eta = [0] * D.n
            for b, (which, i) in enumerate(free):
                if mask >> b & 1:
                    (gamma if which == "g" else eta)[i - 1] = 1
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

    # refold as pure matchings and verify
    cur = identity_diagram(D.bottom)
    for tok in word:
        loops, cur = compose_diagrams(token_diagram(tok, cur.top), cur)
        if loops:
            raise AssertionError("canonical word produced a loop")
    if cur != D:
        raise AssertionError("canonical word does not rebuild the diagram")
    return tuple(word)


def word_for_monomial(m: Monomial):
    """Generator tokens for y^eta . D . y^gamma in application order."""
    word = [("y", i) for i in range(1, m.diagram.n + 1) for _ in range(m.gamma[i - 1])]
    word.extend(word_for_diagram(m.diagram))
    word.extend(
        ("y", i) for i in range(1, m.diagram.n + 1) for _ in range(m.eta[i - 1])
    )
    return word


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
    arcs = json_field(obj, "arcs", list, "a list of point-name pairs", list)
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

"""Registry of the defining relations, shared by every computation route.

Each relation id maps to concrete instances on a given object A. An
instance is (lhs_word, rhs_terms) with rhs_terms a list of (coeff, word);
words are generator tokens in application order (first applied first), and
the claim is  apply(lhs) = sum coeff * apply(word).

Tokens: ('y', i) dot, ('c', i) crossing (the unique variant legal on the
object it meets), ('e', i) / ('eh', i) cap-cup keeping / exchanging the
pair's orientations. A relation is written once, as lhs and rhs templates
over an index family, and `_match` is the one path that expands it: the
template tokens are y, c, e, eh and ('E', i), which stands for e_i or eh_i,
and an instance is every reading in which each token is legal on the object
it meets and all words end on the same object. So dotted-letter relations
hold for every agreeing assignment of cap-cup variants, and a dot-crossing
relation finds its plain or hatted crossing by its endpoints alone.

Coefficients are ints, as everywhere in the package where a value is
integral, or the marker ('omega', k), resolved by the consumer against its
parameter sequence.
"""

from __future__ import annotations

from itertools import product

from .diagrams import orseq, swap_seq
from .exact import num

OMEGA_KMAX = 3  # dot powers enumerated inside contraction instances


def _readings(kind, i, obj):
    """(word token, object above it) for each legal reading of a template token."""
    if kind == "y":
        return [(("y", i), obj)] if 1 <= i <= len(obj) else []
    if not 1 <= i < len(obj):
        return []
    if kind == "c":
        return [(("c", i), swap_seq(obj, i))]
    if obj[i - 1] == obj[i]:
        return []  # a cap-cup joins opposite orientations only
    readings = [(("e", i), obj)] if kind in ("e", "E") else []
    if kind in ("eh", "E"):
        readings.append((("eh", i), swap_seq(obj, i)))
    return readings


def _expand(template, A):
    """Every legal word for a template on A, as (word, top object)."""
    words = [((), A)]
    for kind, i in template:
        words = [(w + (tok,), top) for w, obj in words for tok, top in _readings(kind, i, obj)]
    return words


def _match(lhs, rhs, A):
    """All (lhs word, [(coeff, rhs word)]) readings whose words end on one object."""
    out = []
    readings = list(product(*(_expand(t, A) for _, t in rhs)))
    for lw, top in _expand(lhs, A):
        for words in readings:
            if all(t == top for _, t in words):
                out.append((list(lw), [(k, list(w)) for (k, _), (w, _) in zip(rhs, words)]))
    return out


def _token(kind):
    return lambda i: (kind, i)


y, c, e, eh, E = map(_token, ("y", "c", "e", "eh", "E"))  # template tokens
ONE, MINUS, LOOP = 1, -1, ("omega", 0)

# index families, each a function of the object A
_AT = lambda A: [(i,) for i in range(1, len(A))]  # position i
_AT2 = lambda A: [(i,) for i in range(1, len(A) - 1)]  # positions i, i + 1
_FAR = lambda A: [(i, j) for i in range(1, len(A)) for j in range(i + 2, len(A))]  # j > i + 1
_APART = lambda A: [(i, j) for i, j in product(range(1, len(A)), repeat=2) if abs(i - j) > 1]
_OFF = lambda A: [  # position i, strand j off it
    (i, j) for i in range(1, len(A)) for j in range(1, len(A) + 1) if j not in (i, i + 1)
]
_DOTS = lambda A: [(i, j) for i in range(1, len(A) + 1) for j in range(i + 1, len(A) + 1)]
_POWERS = lambda A: [(k,) for k in range(OMEGA_KMAX + 1)] if A[:2] == (1, -1) else []

# relation id -> (index family, indices -> [(lhs template, [(coeff, rhs template)])])
RELATIONS = {
    "cross_invol": (_AT, lambda i: [([c(i), c(i)], [(ONE, [])])]),
    "cross_far_comm": (_FAR, lambda i, j: [([c(i), c(j)], [(ONE, [c(j), c(i)])])]),
    "braid": (_AT2, lambda i: [([c(i), c(i + 1), c(i)], [(ONE, [c(i + 1), c(i), c(i + 1)])])]),
    "cross_y_far": (_OFF, lambda i, j: [([y(j), c(i)], [(ONE, [c(i), y(j)])])]),
    "cap_sq": (_AT, lambda i: [([e(i), e(i)], [(LOOP, [e(i)])])]),
    "capcup_loop": (_AT, lambda i: [([E(i), E(i)], [(LOOP, [E(i)])])]),
    # e_1 is also legal on (-1, 1), where this contraction does not hold
    "cap_y_cap": (_POWERS, lambda k: [([e(1)] + [y(1)] * k + [e(1)], [(("omega", k), [e(1)])])]),
    "cross_cap_far": (_APART, lambda i, j: [([E(j), c(i)], [(ONE, [c(i), E(j)])])]),
    "cap_cap_far": (_FAR, lambda i, j: [([E(i), E(j)], [(ONE, [E(j), E(i)])])]),
    "cap_y_far": (_OFF, lambda i, j: [([y(j), E(i)], [(ONE, [E(i), y(j)])])]),
    "y_comm": (_DOTS, lambda i, j: [([y(i), y(j)], [(ONE, [y(j), y(i)])])]),
    "cross_absorb": (_AT, lambda i: [([E(i), c(i)], [(ONE, [E(i)])]),
                                     ([c(i), E(i)], [(ONE, [E(i)])])]),
    "slide_a": (_AT2, lambda i: [([E(i), E(i + 1), c(i)], [(ONE, [E(i), c(i + 1)])]),
                                 ([c(i), E(i + 1), E(i)], [(ONE, [c(i + 1), E(i)])])]),
    "slide_b": (_AT2, lambda i: [([c(i + 1), E(i), E(i + 1)], [(ONE, [c(i), E(i + 1)])]),
                                 ([E(i + 1), E(i), c(i + 1)], [(ONE, [E(i + 1), c(i)])])]),
    "cap_shrink": (_AT2, lambda i: [([E(i + 1), E(i), E(i + 1)], [(ONE, [E(i + 1)])]),
                                    ([E(i), E(i + 1), E(i)], [(ONE, [E(i)])])]),
    # s_i y_i = y_{i+1} s_i - 1  and  s_i y_{i+1} = y_i s_i + 1 (plain crossing)
    "dot_cross": (_AT, lambda i: [([y(i), c(i)], [(ONE, [c(i), y(i + 1)]), (MINUS, [])]),
                                  ([y(i + 1), c(i)], [(ONE, [c(i), y(i)]), (ONE, [])])]),
    # sh_i y_i = y_{i+1} sh_i + eh_i  and  sh_i y_{i+1} = y_i sh_i - eh_i (hatted)
    "dot_cross_hat": (_AT, lambda i: [([y(i), c(i)], [(ONE, [c(i), y(i + 1)]), (ONE, [eh(i)])]),
                                      ([y(i + 1), c(i)], [(ONE, [c(i), y(i)]), (MINUS, [eh(i)])])]),
    # edot_i (y_i + y_{i+1}) = 0, i.e. edot_i y_i = -edot_i y_{i+1}
    "cap_kills_sum_above": (_AT, lambda i: [([y(i), E(i)], [(MINUS, [y(i + 1), E(i)])])]),
    "cap_kills_sum_below": (_AT, lambda i: [([E(i), y(i)], [(MINUS, [E(i), y(i + 1)])])]),
}


def relation_ids():
    return list(RELATIONS)


def instances(relation_id: str, A):
    if relation_id not in RELATIONS:
        raise ValueError(f"unknown relation id {relation_id!r}")
    A = orseq(A)
    family, templates = RELATIONS[relation_id]
    return [
        inst for ix in family(A) for lhs, rhs in templates(*ix) for inst in _match(lhs, rhs, A)
    ]


def all_instances(A):
    for rid in RELATIONS:
        for inst in instances(rid, A):
            yield rid, inst


def resolve_coeff(coeff, omega):
    """The value of a registry coefficient, markers read through omega(k):
    an int when it is integral, a Fraction otherwise (exact.num)."""
    if isinstance(coeff, tuple) and coeff and coeff[0] == "omega":
        return num(omega(coeff[1]))
    return num(coeff)

"""Registry of the defining relations, shared by every computation route.

Each relation id maps to a generator of concrete instances on a given
object A. An instance is (lhs_word, rhs_terms) with rhs_terms a list of
(coeff, word); words are generator tokens in application order (first
applied first), and the claim is  apply(lhs) = sum coeff * apply(word).

Tokens: ('y', i) dot, ('c', i) crossing (the unique variant legal on the
object it meets), ('e', i) / ('eh', i) cap-cup keeping / exchanging the
pair's orientations. Dotted-letter relations hold for every assignment of
cap-cup variants on both sides whose sources and targets agree; the
instance generators enumerate exactly those assignments.

Coefficients are Fractions or the marker ('omega', k), resolved by the
consumer against its parameter sequence.
"""

from __future__ import annotations

from fractions import Fraction

from .diagrams import orseq, swap_seq

OMEGA_KMAX = 3  # dot powers enumerated inside contraction instances


def _expand(template, A):
    """Concrete legal words for a template whose ('E', i) slots mean e or eh.

    Yields (word, top_object).
    """
    A = orseq(A)
    n = len(A)
    results = []

    def rec(idx, obj, acc):
        if idx == len(template):
            results.append((tuple(acc), obj))
            return
        kind, i = template[idx]
        if kind == "y":
            if 1 <= i <= n:
                rec(idx + 1, obj, acc + [("y", i)])
        elif kind == "c":
            if 1 <= i <= n - 1:
                rec(idx + 1, swap_seq(obj, i), acc + [("c", i)])
        elif kind == "E":
            if 1 <= i <= n - 1 and obj[i - 1] != obj[i]:
                rec(idx + 1, obj, acc + [("e", i)])
                rec(idx + 1, swap_seq(obj, i), acc + [("eh", i)])
        elif kind == "e":
            if 1 <= i <= n - 1 and obj[i - 1] != obj[i]:
                rec(idx + 1, obj, acc + [("e", i)])
        else:
            raise ValueError(f"bad template token {kind!r}")

    rec(0, A, [])
    return results


def _match(lhs_t, rhs_t, A, coeff=Fraction(1)):
    """All endpoint-matched (lhs, [(coeff, rhs)]) instance pairs."""
    out = []
    for lw, ltop in _expand(lhs_t, A):
        for rw, rtop in _expand(rhs_t, A):
            if ltop == rtop:
                out.append((list(lw), [(coeff, list(rw))]))
    return out


def _cross_positions(A):
    return range(1, len(A))


def _cross_invol(A):
    return [([("c", i), ("c", i)], [(Fraction(1), [])]) for i in _cross_positions(A)]


def _cross_far_comm(A):
    out = []
    for i in _cross_positions(A):
        for j in _cross_positions(A):
            if j - i > 1:
                out.append(
                    ([("c", i), ("c", j)], [(Fraction(1), [("c", j), ("c", i)])])
                )
    return out


def _braid(A):
    return [
        (
            [("c", i), ("c", i + 1), ("c", i)],
            [(Fraction(1), [("c", i + 1), ("c", i), ("c", i + 1)])],
        )
        for i in range(1, len(A) - 1)
    ]


def _cross_y_far(A):
    out = []
    for i in _cross_positions(A):
        for j in range(1, len(A) + 1):
            if j not in (i, i + 1):
                out.append(
                    ([("y", j), ("c", i)], [(Fraction(1), [("c", i), ("y", j)])])
                )
    return out


def _cap_sq(A):
    out = []
    for i in _cross_positions(A):
        out.extend(_match([("e", i), ("e", i)], [("e", i)], A, ("omega", 0)))
    return out


def _capcup_loop(A):
    out = []
    for i in _cross_positions(A):
        out.extend(_match([("E", i), ("E", i)], [("E", i)], A, ("omega", 0)))
    return out


def _cap_y_cap(A):
    A = orseq(A)
    if len(A) < 2 or A[0] != 1 or A[1] != -1:
        return []
    out = []
    for k in range(OMEGA_KMAX + 1):
        lhs = [("e", 1)] + [("y", 1)] * k + [("e", 1)]
        out.append((lhs, [(("omega", k), [("e", 1)])]))
    return out


def _cross_cap_far(A):
    out = []
    for i in _cross_positions(A):
        for j in _cross_positions(A):
            if abs(i - j) > 1:
                out.extend(_match([("E", j), ("c", i)], [("c", i), ("E", j)], A))
    return out


def _cap_cap_far(A):
    out = []
    for i in _cross_positions(A):
        for j in _cross_positions(A):
            if j - i > 1:
                out.extend(_match([("E", i), ("E", j)], [("E", j), ("E", i)], A))
    return out


def _cap_y_far(A):
    out = []
    for i in _cross_positions(A):
        for j in range(1, len(A) + 1):
            if j not in (i, i + 1):
                out.extend(_match([("y", j), ("E", i)], [("E", i), ("y", j)], A))
    return out


def _y_comm(A):
    n = len(A)
    return [
        ([("y", i), ("y", j)], [(Fraction(1), [("y", j), ("y", i)])])
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]


def _cross_absorb(A):
    out = []
    for i in _cross_positions(A):
        out.extend(_match([("E", i), ("c", i)], [("E", i)], A))
        out.extend(_match([("c", i), ("E", i)], [("E", i)], A))
    return out


def _slide_a(A):
    out = []
    for i in range(1, len(A) - 1):
        out.extend(
            _match([("E", i), ("E", i + 1), ("c", i)], [("E", i), ("c", i + 1)], A)
        )
        out.extend(
            _match([("c", i), ("E", i + 1), ("E", i)], [("c", i + 1), ("E", i)], A)
        )
    return out


def _slide_b(A):
    out = []
    for i in range(1, len(A) - 1):
        out.extend(
            _match([("c", i + 1), ("E", i), ("E", i + 1)], [("c", i), ("E", i + 1)], A)
        )
        out.extend(
            _match([("E", i + 1), ("E", i), ("c", i + 1)], [("E", i + 1), ("c", i)], A)
        )
    return out


def _cap_shrink(A):
    out = []
    for i in range(1, len(A) - 1):
        out.extend(
            _match([("E", i + 1), ("E", i), ("E", i + 1)], [("E", i + 1)], A)
        )
        out.extend(_match([("E", i), ("E", i + 1), ("E", i)], [("E", i)], A))
    return out


def _dot_cross(A):
    A = orseq(A)
    out = []
    for i in _cross_positions(A):
        if A[i - 1] != A[i]:
            continue  # plain crossing only
        # s_i y_i = y_{i+1} s_i - 1  and  s_i y_{i+1} = y_i s_i + 1
        out.append(
            (
                [("y", i), ("c", i)],
                [(Fraction(1), [("c", i), ("y", i + 1)]), (Fraction(-1), [])],
            )
        )
        out.append(
            (
                [("y", i + 1), ("c", i)],
                [(Fraction(1), [("c", i), ("y", i)]), (Fraction(1), [])],
            )
        )
    return out


def _dot_cross_hat(A):
    A = orseq(A)
    out = []
    for i in _cross_positions(A):
        if A[i - 1] == A[i]:
            continue  # hatted crossing only
        # sh_i y_i = y_{i+1} sh_i + eh_i  and  sh_i y_{i+1} = y_i sh_i - eh_i
        out.append(
            (
                [("y", i), ("c", i)],
                [(Fraction(1), [("c", i), ("y", i + 1)]), (Fraction(1), [("eh", i)])],
            )
        )
        out.append(
            (
                [("y", i + 1), ("c", i)],
                [(Fraction(1), [("c", i), ("y", i)]), (Fraction(-1), [("eh", i)])],
            )
        )
    return out


def _cap_kills_sum_above(A):
    # edot_i (y_i + y_{i+1}) = 0, i.e. edot_i y_i = -edot_i y_{i+1}
    out = []
    for i in _cross_positions(A):
        out.extend(
            _match([("y", i), ("E", i)], [("y", i + 1), ("E", i)], A, Fraction(-1))
        )
    return out


def _cap_kills_sum_below(A):
    out = []
    for i in _cross_positions(A):
        out.extend(
            _match([("E", i), ("y", i)], [("E", i), ("y", i + 1)], A, Fraction(-1))
        )
    return out


RELATIONS = {
    "cross_invol": _cross_invol,
    "cross_far_comm": _cross_far_comm,
    "braid": _braid,
    "cross_y_far": _cross_y_far,
    "cap_sq": _cap_sq,
    "capcup_loop": _capcup_loop,
    "cap_y_cap": _cap_y_cap,
    "cross_cap_far": _cross_cap_far,
    "cap_cap_far": _cap_cap_far,
    "cap_y_far": _cap_y_far,
    "y_comm": _y_comm,
    "cross_absorb": _cross_absorb,
    "slide_a": _slide_a,
    "slide_b": _slide_b,
    "cap_shrink": _cap_shrink,
    "dot_cross": _dot_cross,
    "dot_cross_hat": _dot_cross_hat,
    "cap_kills_sum_above": _cap_kills_sum_above,
    "cap_kills_sum_below": _cap_kills_sum_below,
}


def relation_ids():
    return list(RELATIONS)


def instances(relation_id: str, A):
    if relation_id not in RELATIONS:
        raise ValueError(f"unknown relation id {relation_id!r}")
    return RELATIONS[relation_id](orseq(A))


def all_instances(A):
    for rid in RELATIONS:
        for inst in RELATIONS[rid](orseq(A)):
            yield rid, inst


def resolve_coeff(coeff, omega):
    """Turn a registry coefficient into a Fraction using omega(k)."""
    if isinstance(coeff, tuple) and coeff and coeff[0] == "omega":
        return Fraction(omega(coeff[1]))
    return Fraction(coeff)

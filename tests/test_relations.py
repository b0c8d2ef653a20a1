import hashlib
import itertools
from fractions import Fraction

from wbcat.affine import OmegaSpec
from wbcat.diagrams import token_diagram
from wbcat.relations import instances, relation_ids, resolve_coeff


def _objects(kmax=5):
    return [A for k in range(1, kmax + 1) for A in itertools.product((1, -1), repeat=k)]


def _as_recorded(insts):
    """insts with every numeric coefficient written as a Fraction, the form
    in which the registry digest was recorded."""
    return [
        (lhs, [(c if isinstance(c, tuple) else Fraction(c), w) for c, w in rhs])
        for lhs, rhs in insts
    ]


def test_registry_is_pinned():
    # every instance, its order and its coefficients on 1-5 strands
    registry = [
        (A, [(rid, _as_recorded(instances(rid, A))) for rid in relation_ids()]) for A in _objects()
    ]
    assert sum(len(insts) for _, per_id in registry for _, insts in per_id) == 4758
    assert hashlib.sha256(repr(registry).encode()).hexdigest()[:16] == "1227d98648943d81"


def _exact(c):
    if isinstance(c, tuple):
        return len(c) == 2 and c[0] == "omega" and type(c[1]) is int
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def test_registry_coefficients_are_ints_or_markers():
    for A in _objects(4):
        for rid in relation_ids():
            for _, rhs in instances(rid, A):
                assert all(_exact(c) for c, _ in rhs), (rid, A, rhs)


def test_resolve_coeff_reads_numbers_and_markers():
    om = OmegaSpec.from_list([2, "3/2", "4/2"])
    for coeff, want in ((1, 1), (-1, -1), (Fraction(-1), -1), (("omega", 0), 2),
                        (("omega", 1), Fraction(3, 2)), (("omega", 2), 2)):
        got = resolve_coeff(coeff, om)
        assert got == want and type(got) is type(want), (coeff, got)


def _end(word, A):
    """The object a word ends on, folded through the generator diagrams."""
    obj = A
    for kind, i in word:
        if kind == "y":
            assert 1 <= i <= len(A), (word, A)
        else:
            obj = token_diagram((kind, i), obj).top  # raises on an illegal token
    return obj


def test_every_instance_ends_on_one_object():
    for A in _objects():
        for rid in relation_ids():
            for lhs, rhs in instances(rid, A):
                ends = {_end(lhs, A)} | {_end(word, A) for _, word in rhs}
                assert len(ends) == 1, (rid, A, lhs, rhs)

import hashlib
import itertools

from wbcat.diagrams import token_diagram
from wbcat.relations import instances, relation_ids


def _objects():
    return [A for k in range(1, 6) for A in itertools.product((1, -1), repeat=k)]


def test_registry_is_pinned():
    # every instance, its order and its coefficients on 1-5 strands
    registry = [(A, [(rid, instances(rid, A)) for rid in relation_ids()]) for A in _objects()]
    assert sum(len(insts) for _, per_id in registry for _, insts in per_id) == 4758
    assert hashlib.sha256(repr(registry).encode()).hexdigest()[:16] == "1227d98648943d81"


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

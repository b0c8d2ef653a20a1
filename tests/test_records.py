"""The frozen value classes built on exact.Record: OmegaSpec, CycloParams
and GlContext keep value equality, a cached hash, immutability and their
repr, and importing the CLI loads neither dataclasses nor inspect."""

import copy
import pickle
import subprocess
import sys

import pytest

from wbcat import cyclotomic
from wbcat.affine import OmegaSpec
from wbcat.cyclotomic import CycloParams, make_params
from wbcat.diagrams import orseq
from wbcat.glrep import GlContext

PAIRS = [
    (lambda: OmegaSpec.from_list([1, "3/2"]), lambda: OmegaSpec.from_list([1, 2])),
    (lambda: OmegaSpec.from_mn_delta(3, 3, 0), lambda: OmegaSpec.trivial(3)),
    (lambda: make_params(3, 3, 0), lambda: make_params(3, 3, 1)),
    (lambda: GlContext.parabolic(2, 2, 0), lambda: GlContext.trivial(4)),
]


def test_import_cli_loads_neither_dataclasses_nor_inspect():
    code = "import sys, wbcat.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert r.stdout == "[]\n"


@pytest.mark.parametrize("make, make_other", PAIRS)
def test_equal_instances_compare_and_hash_equal(make, make_other):
    a, b, other = make(), make(), make_other()
    assert a is not b and a == b and hash(a) == hash(b) == a._hash
    assert a != other and not a == other
    assert a.__eq__(a._values) is NotImplemented
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


def test_repr_is_pinned():
    assert repr(GlContext.parabolic(2, 2, 0)) == "GlContext(m=2, n=2, delta=0, N=4)"
    assert repr(GlContext.trivial(3)) == "GlContext(m=0, n=3, delta=0, N=3)"
    assert repr(make_params(3, 3, 0)) == (
        "CycloParams(m=3, n=3, delta=0, beta1=Fraction(3, 1), beta2=Fraction(0, 1), "
        "beta1s=Fraction(3, 1), beta2s=Fraction(0, 1), "
        "omega=OmegaSpec(kind='mn_delta', values=(), m=3, n=3, delta=0))"
    )
    assert repr(OmegaSpec.from_list([1, "3/2"])) == (
        "OmegaSpec(kind='list', values=(Fraction(1, 1), Fraction(3, 2)), m=0, n=0, delta=0)"
    )
    assert repr(OmegaSpec.trivial(3)) == "OmegaSpec(kind='mn_delta', values=(), m=0, n=3, delta=0)"


@pytest.mark.parametrize("make", [make for make, _ in PAIRS])
def test_assignment_raises(make):
    obj = make()
    for name in obj.FIELDS + ("_values", "_hash", "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert obj == make()


def test_constructors_validate():
    with pytest.raises(ValueError, match="positive"):
        CycloParams(0, 1, 0)
    for N in (0, -3):
        with pytest.raises(ValueError, match="N must be positive"):
            GlContext.trivial(N)
    for mn in ((0, 3), (3, 0)):
        with pytest.raises(ValueError, match="m, n >= 1"):
            GlContext.parabolic(*mn, 0)
    assert GlContext.trivial(3) == GlContext(0, 3) and GlContext.trivial(3).N == 3


def test_memo_cache_hits_for_an_equal_params_instance():
    C = orseq((1, -1))
    first, second = CycloParams(3, 3, 0), CycloParams(3, 3, 0)
    cyclotomic._quadratic_replacement.cache_clear()
    cyclotomic._quadratic_replacement(C, 1, first)
    cyclotomic._quadratic_replacement(C, 1, second)
    info = cyclotomic._quadratic_replacement.cache_info()
    assert (info.hits, info.misses) == (1, 1)

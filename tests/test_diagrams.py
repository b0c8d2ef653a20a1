import json
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from wbcat.diagrams import (
    DecoratedElement,
    Monomial,
    WBDiagram,
    all_orseqs,
    compose_diagrams,
    cyclotomic_monomials,
    diagram_from_json,
    diagram_to_json,
    element_from_json,
    element_to_json,
    enumerate_diagrams,
    generator,
    identity_diagram,
    is_regular,
    monomial_from_json,
    monomial_to_json,
    permutation_diagram,
    token_diagram,
    word_for_diagram,
    word_for_monomial,
)
from wbcat.exact import lincomb
from wbcat.glrep import GlContext, ModuleVector, zero_vector


def cupcap(A=(1, -1)):
    return token_diagram(("e", 1), A)


def test_diagram_validation():
    with pytest.raises(ValueError):
        WBDiagram((1, 1), (1, 1), [(("b", 1), ("b", 2)), (("t", 1), ("t", 2))])
    with pytest.raises(ValueError):
        WBDiagram((1, -1), (-1, 1), [(("b", 1), ("t", 1)), (("b", 2), ("t", 2))])
    with pytest.raises(ValueError):
        WBDiagram((1, -1), (1, -1), [(("b", 1), ("t", 1)), (("b", 1), ("t", 2))])


def test_generator_preconditions():
    with pytest.raises(ValueError):
        generator("s", (1, -1), 1)
    with pytest.raises(ValueError):
        generator("e", (1, 1), 1)
    with pytest.raises(ValueError):
        generator("eh", (1, 1), 1)
    e = generator("e", (1, -1), 1)
    assert e.top == (1, -1)
    sh = generator("sh", (1, -1), 1)
    assert sh.top == (-1, 1)
    y = generator("y", (1, -1), 2)
    (m, c), = y.terms.items()
    assert c == 1 and m.gamma == (0, 1) and m.eta == (0, 0)


def test_compose_identity():
    D = cupcap()
    loops, R = compose_diagrams(identity_diagram((1, -1)), D)
    assert loops == 0 and R == D
    loops, R = compose_diagrams(D, identity_diagram((1, -1)))
    assert loops == 0 and R == D


def test_compose_ee_loop():
    D = cupcap()
    loops, R = compose_diagrams(D, D)
    assert loops == 1 and R == D


def test_compose_ehat_ehat_loop():
    # hatted cap-cup (1,-1)->(-1,1) stacked on its (-1,1)->(1,-1) sibling
    eh1 = token_diagram(("eh", 1), (1, -1))
    eh2 = token_diagram(("eh", 1), (-1, 1))
    loops, R = compose_diagrams(eh2, eh1)
    assert loops == 1 and R == cupcap()


def test_enumerate_counts():
    assert len(enumerate_diagrams((1,), (1,))) == 1
    assert len(enumerate_diagrams((1, -1), (1, -1))) == 2
    assert len(enumerate_diagrams((1, 1, -1), (1, 1, -1))) == 6
    assert len(enumerate_diagrams((1, -1, 1, -1), (1, 1, -1, -1))) == 24


def test_enumerate_counts_all_orderings_rt3():
    for A in all_orseqs(2, 1):
        for B in all_orseqs(2, 1):
            assert len(enumerate_diagrams(A, B)) == 6


def test_compose_associative_exhaustive_rt2():
    A = (1, -1)
    ds = enumerate_diagrams(A, A)
    for X in ds:
        for Y in ds:
            for Z in ds:
                l1, XY = compose_diagrams(X, Y)
                l2, R1 = compose_diagrams(XY, Z)
                l3, YZ = compose_diagrams(Y, Z)
                l4, R2 = compose_diagrams(X, YZ)
                assert R1 == R2 and l1 + l2 == l3 + l4


def test_is_regular():
    idm = Monomial(identity_diagram((1, -1)), (3, 1), (0, 0))
    assert is_regular(idm)
    assert not is_regular(Monomial(identity_diagram((1, -1)), (0, 0), (1, 0)))
    e = cupcap()
    assert is_regular(Monomial(e, (0, 1), (1, 0)))
    assert not is_regular(Monomial(e, (1, 0), (0, 0)))  # dot at bottom arcL
    assert not is_regular(Monomial(e, (0, 0), (0, 1)))  # dot at top arcR


def test_regular_monomial_counts():
    assert len(cyclotomic_monomials((1,))) == 2
    assert len(cyclotomic_monomials((1, -1))) == 8
    assert len(cyclotomic_monomials((1, 1, -1))) == 48
    assert len(cyclotomic_monomials((1, -1, 1))) == 48
    assert all(is_regular(m) for m in cyclotomic_monomials((1, -1, 1)))


def test_permutation_diagram():
    P = permutation_diagram((1, 1, -1), [2, 3, 1])
    assert P.top == (-1, 1, 1)
    assert P.partner("b", 1) == ("t", 2)


@st.composite
def random_diagram(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    r = draw(st.integers(min_value=0, max_value=n))
    A = draw(st.permutations((1,) * r + (-1,) * (n - r)))
    B = draw(st.permutations(list(A)))
    ds = enumerate_diagrams(tuple(A), tuple(B))
    return ds[draw(st.integers(min_value=0, max_value=len(ds) - 1))]


@given(random_diagram())
@settings(max_examples=80, deadline=None)
def test_word_factorization_rebuilds(D):
    # word_for_diagram self-checks by refolding; just exercise it
    word = word_for_diagram(D)
    assert all(tok[0] in ("c", "e", "eh") for tok in word)


def test_word_for_monomial_order():
    m = Monomial(cupcap(), (0, 2), (1, 0))
    word = word_for_monomial(m)
    assert word[:2] == [("y", 2), ("y", 2)]
    assert word[-1] == ("y", 1)
    assert ("e", 1) in word or ("eh", 1) in word


def test_json_roundtrip():
    for D in enumerate_diagrams((1, 1, -1), (1, -1, 1)):
        assert diagram_from_json(json.loads(json.dumps(diagram_to_json(D)))) == D
    m = Monomial(cupcap(), (0, 1), (1, 0))
    assert monomial_from_json(monomial_to_json(m)) == m
    el = DecoratedElement.from_monomial(m, "3/2") + DecoratedElement.from_monomial(
        Monomial(identity_diagram((1, -1))), -2
    )
    assert element_from_json(element_to_json(el)) == el


def test_element_arithmetic():
    A = (1, -1)
    one = DecoratedElement.unit(A)
    e = generator("e", A, 1)
    x = one + e.scale(2)
    assert (x - x).is_zero()
    assert x.degree() == 0
    y = generator("y", A, 1)
    assert (x + y).degree() == 1


# ---------------------------------------------------------------------------
# The linear-combination kernel.


def _reference_sum(parts):
    # the plain definition: sum c * x coefficient by coefficient, zeros dropped
    acc = {}
    for c, x in parts:
        for m, v in x.terms.items():
            acc[m] = acc.get(m, 0) + c * v
    return {m: v for m, v in acc.items() if v != 0}


_coeffs = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)


@pytest.mark.parametrize("A", [(1, -1), (1, -1, 1)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lincomb_matches_the_reference_sum(A, data):
    # a small monomial pool makes cancellations to zero frequent
    pool = cyclotomic_monomials(A)[:6]
    elements = [
        DecoratedElement(A, A, data.draw(st.dictionaries(st.sampled_from(pool), _coeffs, max_size=4)))
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    parts = [(data.draw(_coeffs), data.draw(st.sampled_from(elements))) for _ in range(5)]
    # each element once more with the opposite coefficient of its first use
    parts += [(-c, x) for c, x in parts[: data.draw(st.integers(0, 2))]]
    before = [dict(x.terms) for _, x in parts]
    want = _reference_sum(parts)
    got = DecoratedElement.lincomb(A, A, parts)
    # the same sum in the kernel itself, and in gl_N module vectors through
    # +, - and scale, each pool monomial standing for one basis key
    kernel = lincomb([(c, x.terms) for c, x in parts])
    ctx = GlContext.trivial(3)
    key = dict(zip(pool, (((), slots) for slots in product((1, 2, 3), repeat=len(A)))))
    vec = {id(x): ModuleVector(ctx, A, {key[m]: c for m, c in x.terms.items()}) for _, x in parts}
    vec_before = {i: dict(v.terms) for i, v in vec.items()}
    total = zero_vector(ctx, A)
    for n, (c, x) in enumerate(parts):
        total = total + vec[id(x)].scale(c) if n % 2 else total - vec[id(x)].scale(-c)
    assert got.terms == kernel == want
    assert total.terms == {key[m]: v for m, v in want.items()}
    for terms in (got.terms, kernel, total.terms):
        assert all(type(c) is int or c.denominator != 1 for c in terms.values())
    assert [x.terms for _, x in parts] == before  # no part changed
    assert {i: v.terms for i, v in vec.items()} == vec_before
    assert all(got.terms is not x.terms for _, x in parts)
    # other bottom and top, or the same bottom and another top
    for bad in (DecoratedElement.unit((A[1], A[0]) + A[2:]), generator("eh", A, 1)):
        with pytest.raises(ValueError, match="boundary"):
            DecoratedElement.lincomb(A, A, parts + [(1, bad)])
    other = ModuleVector.basis_vector(ctx, (A[1], A[0]) + A[2:], (1,) * len(A))
    for op in (ModuleVector.__add__, ModuleVector.__sub__):
        with pytest.raises(ValueError, match="object mismatch"):
            op(total, other)


def test_lincomb_cancels_to_the_zero_element():
    A = (1, -1)
    x = generator("e", A, 1) + generator("y", A, 1).scale(Fraction(1, 2))
    zero = DecoratedElement.lincomb(A, A, [(2, x), (Fraction(-4, 2), x)])
    assert zero.is_zero() and zero.terms == {} and (zero.bottom, zero.top) == (A, A)
    assert (x - x).terms == {} and x.scale(0).terms == {}
    assert [type(c) for c in x.scale(2).terms.values()] == [int, int]
    assert lincomb([(2, x.terms), (Fraction(-4, 2), x.terms)]) == {}
    ctx = GlContext.trivial(2)
    v = ModuleVector(ctx, A, {((), (1, 1)): 1, ((), (2, 1)): Fraction(-1, 2)})
    assert (v - v).is_zero() and (v + v.scale(-1)).terms == {} and v.scale(0).terms == {}
    assert [type(c) for c in v.scale(2).terms.values()] == [int, int]
    assert ModuleVector(ctx, A, {((), (1, 1)): Fraction(4, 2)}).terms == {((), (1, 1)): 2}
    # floats are not exact: every entry point refuses them
    for bad in (
        lambda: x.scale(0.5),
        lambda: zero.scale(0.5),
        lambda: DecoratedElement.lincomb(A, A, [(1.5, x)]),
        lambda: lincomb([(1, {"k": 0.5})]),
        lambda: v.scale(0.5),
        lambda: ModuleVector(ctx, A, {((), (1, 1)): 0.5}),
    ):
        with pytest.raises(TypeError):
            bad()

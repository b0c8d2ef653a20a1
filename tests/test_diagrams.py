import json
import pickle
from copy import deepcopy
from fractions import Fraction
from itertools import product

import pytest

import wbcat
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
    dot_stack,
    element_from_json,
    element_to_json,
    enumerate_diagrams,
    generator,
    identity_diagram,
    is_regular,
    monomial_from_json,
    monomial_to_json,
    permutation_diagram,
    sources_and_sinks,
    token_diagram,
    word_for_diagram,
    word_for_monomial,
)
from wbcat import affine
from wbcat.affine import OmegaSpec
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


def _objects(max_n):
    return [A for n in range(1, max_n + 1) for r in range(n + 1) for A in all_orseqs(r, n - r)]


def _object_pairs(max_n):
    objs = _objects(max_n)
    return [(A, B) for A in objs for B in objs if len(A) == len(B) and sum(A) == sum(B)]


def _two_case_rule(A, B, pairs):
    # the orientation test of the recursive matcher: a through strand keeps
    # its orientation, a horizontal arc joins opposite ones
    def ori(pt):
        return A[pt[1] - 1] if pt[0] == "b" else B[pt[1] - 1]

    return all((ori(p) != ori(q)) == (p[0] == q[0]) for p, q in pairs)


def _recursive_matcher(A, B):
    """The diagrams A -> B in the order of the former recursive matcher: pair
    the smallest free point with each later compatible partner in turn."""
    n = len(A)
    out = []

    def rec(free, pairs):
        if not free:
            out.append(WBDiagram(A, B, pairs))
            return
        p = free[0]
        for idx in range(1, len(free)):
            if _two_case_rule(A, B, [(p, free[idx])]):
                rec(free[1:idx] + free[idx + 1 :], pairs + [(p, free[idx])])

    rec([("b", i) for i in range(1, n + 1)] + [("t", i) for i in range(1, n + 1)], [])
    return out


def test_enumerate_matches_the_recursive_matcher():
    # same diagrams in the same order on all 350 object pairs of 1-5 strands
    cases = _object_pairs(5)
    assert len(cases) == 350
    total = 0
    for A, B in cases:
        got = enumerate_diagrams(A, B)
        assert [D.pairs for D in got] == [D.pairs for D in _recursive_matcher(A, B)]
        total += len(got)
    assert total == 32054


def test_sources_and_sinks():
    assert sources_and_sinks((1, -1), (-1, 1)) == (
        [("b", 1), ("t", 1)],
        [("b", 2), ("t", 2)],
    )
    for A, B in _object_pairs(4):
        sources, sinks = sources_and_sinks(A, B)
        assert len(sources) == len(sinks) == len(A)
        assert sorted(sources + sinks) == sorted(
            [("b", i) for i in range(1, len(A) + 1)] + [("t", i) for i in range(1, len(A) + 1)]
        )


def _perfect_matchings(points):
    if not points:
        yield []
        return
    p = points[0]
    for idx in range(1, len(points)):
        for rest in _perfect_matchings(points[1:idx] + points[idx + 1 :]):
            yield [(p, points[idx])] + rest


def test_diagram_accepts_exactly_the_two_case_rule():
    # every perfect matching of the 2n points, object pairs of 1-3 strands
    accepted = refused = 0
    for A, B in _object_pairs(3):
        n = len(A)
        points = [("b", i) for i in range(1, n + 1)] + [("t", i) for i in range(1, n + 1)]
        for pairs in _perfect_matchings(points):
            if _two_case_rule(A, B, pairs):
                assert WBDiagram(A, B, pairs).pairs == tuple(sorted(pairs))
                accepted += 1
            else:
                with pytest.raises(ValueError, match="not a source to a sink"):
                    WBDiagram(A, B, pairs)
                refused += 1
    assert accepted == 2 * 1 + 6 * 2 + 20 * 6
    assert accepted + refused == 2 * 1 + 6 * 3 + 20 * 15


def test_cap_cup_on_equal_orientations_is_refused():
    omega = OmegaSpec.trivial(2)
    for kind in ("e", "eh"):
        for A in ((1, 1), (-1, -1), (1, 1, -1)):
            with pytest.raises(ValueError):
                token_diagram((kind, 1), A)
            with pytest.raises(ValueError):
                affine.element_for_word([(kind, 1)], A, omega)


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


def _glued_reference(upper, lower):
    """(loops, outer pairs) of upper stacked on lower, from the closed and
    open components of the glued graph: points ("b", i) below, ("m", i) in
    the middle and ("t", i) above, joined by the arcs of both pieces."""
    rename = [{"b": "b", "t": "m"}, {"b": "m", "t": "t"}]
    root = {}

    def find(x):
        root.setdefault(x, x)
        while root[x] != x:
            x = root[x]
        return x

    for names, piece in zip(rename, (lower, upper)):
        for (s1, i), (s2, j) in piece.pairs:
            root[find((names[s1], i))] = find((names[s2], j))
    comps = {}
    for x in list(root):
        comps.setdefault(find(x), []).append(x)
    loops = sum(all(side == "m" for side, _ in c) for c in comps.values())
    pairs = {tuple(sorted(pt for pt in c if pt[0] != "m")) for c in comps.values()}
    return loops, pairs - {()}


def test_compose_matches_the_glued_graph_reference():
    wbcat.clear_caches()  # a memoized equal pair would hide an identity bug
    objs = [A for n in range(1, 4) for r in range(n + 1) for A in all_orseqs(r, n - r)]
    # self-compositions D.D first, with upper and lower one shared diagram
    selfs = [D for n in range(1, 5) for r in range(n + 1) for A in all_orseqs(r, n - r)
             for D in enumerate_diagrams(A, A)]
    cases = [(D, D) for D in selfs]
    for A, B, C in product(objs, repeat=3):
        if len(A) == len(B) == len(C) and A.count(1) == B.count(1) == C.count(1):
            cases += product(enumerate_diagrams(B, C), enumerate_diagrams(A, B))
    # composable triples on 1, 2, 3 strands: 2, 10 and 56, with n!^2 pairs each
    assert len(selfs) == 442 and len(cases) - len(selfs) == 2 * 1 + 10 * 4 + 56 * 36
    for upper, lower in cases:
        loops, R = compose_diagrams(upper, lower)
        assert (R.bottom, R.top) == (lower.bottom, upper.top)
        assert (loops, set(R.pairs)) == _glued_reference(upper, lower)


def test_is_regular():
    idm = Monomial(identity_diagram((1, -1)), (3, 1), (0, 0))
    assert is_regular(idm)
    assert not is_regular(Monomial(identity_diagram((1, -1)), (0, 0), (1, 0)))
    e = cupcap()
    assert is_regular(Monomial(e, (0, 1), (1, 0)))
    assert not is_regular(Monomial(e, (1, 0), (0, 0)))  # dot at bottom arcL
    assert not is_regular(Monomial(e, (0, 0), (0, 1)))  # dot at top arcR


def test_dot_counts_must_be_ints():
    # a bool or a float equals an int, so it could become the shared object
    D = identity_diagram((1, -1))
    for gamma, eta in [((True, 0), (0, 0)), ((1.0, 0), (0, 0)), ((0, 0), (0, 1.5))]:
        for _ in range(2):  # refused before and after the int form is interned
            with pytest.raises(ValueError, match="must be a list of integers"):
                Monomial(D, gamma, eta)
            Monomial(D, [int(d) for d in gamma], [int(d) for d in eta])
    with pytest.raises(ValueError, match="negative"):
        Monomial(D, (-1, 0))
    with pytest.raises(ValueError, match="length"):
        Monomial(D, (0,))


def test_equal_monomials_are_one_object():
    # one built from a composite, one from a directly built diagram
    A = (1, -1, 1)
    _, C = compose_diagrams(token_diagram(("e", 1), A), token_diagram(("e", 2), A))
    D = WBDiagram(A, A, [(("b", 1), ("t", 3)), (("b", 2), ("b", 3)), (("t", 1), ("t", 2))])
    assert C == D and C is not D
    m = Monomial(C, (0, 1, 0), (1, 0, 0))
    assert Monomial(D, [0, 1, 0], [1, 0, 0]) is m
    assert Monomial(D) is Monomial(C, (0, 0, 0), (0, 0, 0))


def test_monomials_stay_equal_across_clear_caches():
    D = cupcap()
    before = Monomial(D, (0, 1), (1, 0))
    wbcat.clear_caches()
    after = Monomial(D, (0, 1), (1, 0))
    assert after is not before
    assert after == before and hash(after) == hash(before)
    assert {before: 1}[after] == 1 and is_regular(after) and is_regular(before)


def test_monomial_pickle_and_deepcopy():
    m = Monomial(cupcap(), (0, 2), (1, 0))
    for copy in (pickle.loads(pickle.dumps(m)), deepcopy(m)):
        assert copy is m and dot_stack(copy) == ("b", 2)
    wbcat.clear_caches()
    restored = pickle.loads(pickle.dumps(m))
    assert restored == m and restored is Monomial(cupcap(), (0, 2), (1, 0))
    el = DecoratedElement.from_monomial(m, "3/2")
    assert pickle.loads(pickle.dumps(el)) == el == deepcopy(el)


def test_dot_stack_is_the_first_stacked_point():
    D = identity_diagram((1, -1, 1))
    assert dot_stack(Monomial(D, (1, 0, 1), (1, 1, 0))) == ()
    assert dot_stack(Monomial(D, (0, 0, 2), (0, 3, 0))) == ("t", 2)
    assert dot_stack(Monomial(D, (0, 2, 0), (0, 3, 0))) == ("b", 2)


def test_rests_matches_the_kind_rule():
    # reference: a bottom dot rests anywhere but at the left end of a bottom
    # arc, a top dot only at the left end of a top arc
    diagrams = 0
    for n in range(1, 5):
        objs = [o for r in range(n + 1) for o in all_orseqs(r, n - r)]
        for A, B in product(objs, repeat=2):
            if sum(A) != sum(B):
                continue
            for D in enumerate_diagrams(A, B):
                diagrams += 1
                for i in range(1, n + 1):
                    assert D.rests("b", i) == (D.bottom_kind(i) != "arcL"), (D, i)
                    assert D.rests("t", i) == (D.top_kind(i) == "arcL"), (D, i)
    assert diagrams == 2 * 1 + 6 * 2 + 20 * 6 + 70 * 24


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


def test_word_for_monomial_is_a_fresh_list():
    m = Monomial(cupcap(), (0, 2), (1, 0))
    word = word_for_monomial(m)
    want = list(word)
    word.append(("y", 1))
    assert word_for_monomial(m) == want


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

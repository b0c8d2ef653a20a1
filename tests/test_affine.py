import hashlib
import json
import random
from fractions import Fraction as F
from itertools import combinations_with_replacement

import pytest

import wbcat
from wbcat import affine
from wbcat.affine import (
    OmegaRangeError,
    OmegaSpec,
    _arc_transport,
    _omega_mn,
    check_relation,
    element_for_word,
    multiply,
    push_dot,
    reduce,
    tok_mono,
    w_coeff,
)
from wbcat.cyclotomic import cyclo_reduce, make_params, w1_closed_form
from wbcat.diagrams import (
    DecoratedElement,
    Monomial,
    all_orseqs,
    element_to_json,
    enumerate_diagrams,
    generator,
    identity_monomial,
    is_regular,
    orseq,
    rt_counts,
    token_diagram,
)
from wbcat.exact import LaurentSeries, MultiPoly, series_mul, series_star
from wbcat.glrep import (
    GlContext,
    ModuleVector,
    apply_token as rep_token,
    apply_word as rep_word,
    represent,
    spanning_vectors,
)
from wbcat.relations import relation_ids, instances

OM = OmegaSpec.from_list(
    [F(3, 2), F(-5, 3), F(7), F(11, 5), F(2), F(-3), F(13, 7), F(4), F(-9, 2), F(1), F(6), F(8)]
)


def objects_of_size(n):
    out = []
    for r in range(n + 1):
        out.extend(orseq(o) for o in all_orseqs(r, n - r))
    return out


# ---------------------------------------------------------------------------
# Omega value sources.


def test_omega_list_and_range_error():
    om = OmegaSpec.from_list([2, 3])
    assert om(0) == 2 and om(1) == 3
    with pytest.raises(OmegaRangeError):
        om(2)


def test_omega_trivial_and_mn_delta():
    om = OmegaSpec.trivial(4)
    assert [om(k) for k in range(4)] == [4, 8, 16, 32]
    om = OmegaSpec.from_mn_delta(2, 2, 0)
    assert om(0) == 4 and om(1) == 8
    # recursion with beta1 = 2, beta2 = 0: om_k = 2 om_{k-1}
    assert om(2) == 16 and om(5) == 128
    om = OmegaSpec.from_mn_delta(1, 1, 0)
    assert [om(k) for k in range(6)] == [2, 2, 2, 2, 2, 2]
    # the trivial module is the m = 0 parabolic module: the recursion has
    # roots N/2 - delta and N/2, and omega_0 = N, omega_1 = N^2/2 leave only
    # the second, whatever delta is
    for N in range(1, 9):
        for delta in range(-2, 4):
            om, om0 = OmegaSpec.trivial(N), OmegaSpec.from_mn_delta(0, N, delta)
            for k in range(30):
                assert om(k) == N * F(N, 2) ** k == om0(k)


def test_omega_mn_matches_closed_form():
    # computed cold, index by index, against the generating function
    _omega_mn.cache_clear()
    p = make_params(3, 3, 1)
    for k in range(41):
        assert _omega_mn(3, 3, 1, k) == w1_closed_form(p, k), k


def test_omega_json_round_trip():
    for om in (
        OmegaSpec.from_list([F(1, 2), 3]),
        OmegaSpec.from_mn_delta(3, 2, -1),
        OmegaSpec.trivial(5),
    ):
        assert OmegaSpec.from_json(om.to_json()) == om
        assert OmegaSpec.from_json(om.to_json())(1) == om(1)
    # the trivial kind is still read from outside input
    assert OmegaSpec.from_json({"kind": "trivial", "N": 3}) == OmegaSpec.trivial(3)


# ---------------------------------------------------------------------------
# Product normal forms: the worked single-strand identities.


def test_crossing_dot_exchange():
    A = orseq((1, 1))
    s1 = generator("s", A, 1)
    y1 = generator("y", A, 1)
    y2 = generator("y", A, 2)
    assert multiply(s1, y1, OM) == multiply(y2, s1, OM) - DecoratedElement.unit(A)
    assert multiply(multiply(s1, y1, OM), s1, OM) == y2 - s1


def test_hatted_crossing_dot_exchange():
    B = orseq((1, -1))
    Bs = orseq((-1, 1))
    sh1 = generator("sh", B, 1)
    eh1 = generator("eh", B, 1)
    y1 = generator("y", B, 1)
    y2s = generator("y", Bs, 2)
    assert multiply(sh1, y1, OM) == multiply(y2s, sh1, OM) + eh1


def test_contraction_values():
    # e1 y1^k e1 = omega_k e1
    B = orseq((1, -1))
    e1 = generator("e", B, 1)
    y1 = generator("y", B, 1)
    x = e1
    for k in range(6):
        assert multiply(e1, x, OM) == e1.scale(OM(k))
        x = multiply(y1, x, OM)


def test_cap_kills_dot_sum_and_flip():
    B = orseq((1, -1))
    e1 = generator("e", B, 1)
    y1 = generator("y", B, 1)
    y2 = generator("y", B, 2)
    assert multiply(y1 + y2, e1, OM).is_zero()
    assert multiply(e1, y1 + y2, OM).is_zero()
    assert multiply(y2, e1, OM) == multiply(y1, e1, OM).scale(-1)


def test_reduce_rehomes_illegal_dots():
    B = orseq((1, -1))
    e1 = generator("e", B, 1)
    mono = next(iter(e1.terms))
    # a dot stored on the top-right arc endpoint is illegal
    bad = Monomial(mono.diagram, mono.gamma, (0, 1))
    el = DecoratedElement.from_monomial(bad)
    red = reduce(el, OM)
    assert red == DecoratedElement.from_monomial(
        Monomial(mono.diagram, mono.gamma, (1, 0)), -1
    )
    assert reduce(red, OM) == red


def test_reduce_normalizes_one_irregular_term_among_regular_ones():
    # an element comes back as it is only when every term is regular
    A = (1, -1, 1)
    rng = random.Random(23)
    regular = DecoratedElement(A, A, {random_monomial(rng, A, A): k for k in range(1, 5)})
    assert reduce(regular, OM) is regular
    D = next(D for D in enumerate_diagrams(A, A) if D.bottom_arcs())
    left = D.bottom_arcs()[0][0]
    bad = DecoratedElement.from_monomial(Monomial(D, [int(j == left) for j in (1, 2, 3)]), F(3, 2))
    el = regular + bad
    red = reduce(el, OM)
    assert red != el and all(is_regular(m) for m in red.terms)
    assert red == regular + reduce(bad, OM)


# ---------------------------------------------------------------------------
# W-series coefficients.


def test_w_coeff_base_prefix_gives_omega():
    B = orseq((1, -1))
    for k in range(6):
        p = w_coeff(B, 1, k, OM)
        assert p.is_constant() and p.constant_term() == OM(k)


def test_w_coeff_k0_is_omega0_everywhere():
    for A in [(1, -1), (-1, 1), (1, 1, -1), (1, -1, 1), (-1, -1, 1), (-1, 1, -1)]:
        A = orseq(A)
        for i in range(1, len(A)):
            if A[i - 1] != A[i]:
                p = w_coeff(A, i, 0, OM)
                assert p.is_constant() and p.constant_term() == OM(0)


def test_w_coeff_degree_bound():
    for A in [(1, 1, -1), (1, -1, 1), (-1, 1, -1, 1)]:
        A = orseq(A)
        for i in range(1, len(A)):
            if A[i - 1] == A[i]:
                continue
            for k in range(1, 7):
                assert w_coeff(A, i, k, OM).total_degree() <= k - 1


def test_w_coeff_requires_opposite_orientations():
    with pytest.raises(ValueError):
        w_coeff((1, 1), 1, 0, OM)


def test_starred_prefix_matches_series_involution():
    # W-series on (-1, ...) is the involution image of the series on (1, ...)
    K = 7
    w1 = LaurentSeries.from_rationals([OM(k) for k in range(K)])
    starred = series_star(w1)
    B = orseq((-1, 1))
    for k in range(K - 1):
        p = w_coeff(B, 1, k, OM)
        assert p.is_constant() and p.constant_term() == starred[k].constant_term()


def test_straightening_functional_equation():
    # (W_2(u) + u) ((u - y1)^2 - 1) == (W_1(u) + u) (u - y1)^2 as series,
    # rewritten with nonnegative powers of 1/u only.
    K = 8
    one = MultiPoly.const(1, 1)
    y = MultiPoly.var(1, 1)
    S1 = LaurentSeries(1, [one] + [MultiPoly.const(1, OM(k)) for k in range(K)])
    A = orseq((1, 1, -1))
    S2 = LaurentSeries(
        1, [one] + [w_coeff(A, 2, k, OM).extend(1) for k in range(K)]
    )
    # (1 - y/u)^2 and (1 - y/u)^2 - 1/u^2
    sq = LaurentSeries(1, [one, y.scale(-2), y * y] + [MultiPoly.zero(1)] * (K - 2))
    sq_minus = LaurentSeries(
        1, [one, y.scale(-2), y * y - one] + [MultiPoly.zero(1)] * (K - 2)
    )
    lhs = series_mul(S2, sq_minus)
    rhs = series_mul(S1, sq)
    assert lhs.truncate(K - 2) == rhs.truncate(K - 2)


def test_w_coeff_matches_representation_contraction():
    # e_i y_i^k e_i acting on the trivial module equals the w-coefficient
    # polynomial in the lower dots acting, for every mixed prefix.
    for N in (2, 3):
        ctx = GlContext.trivial(N)
        om = OmegaSpec.trivial(N)
        for A in [(1, -1), (-1, 1), (1, 1, -1), (1, -1, 1), (-1, -1, 1)]:
            A = orseq(A)
            for i in range(1, len(A)):
                if A[i - 1] == A[i]:
                    continue
                for k in range(4):
                    poly = w_coeff(A, i, k, om)
                    lhs_word = [("e", i)] + [("y", i)] * k + [("e", i)]
                    for v in spanning_vectors(ctx, A, max_deg=0):
                        lv = rep_word(lhs_word, v)
                        rv = lv.scale(0)
                        for exp, c in poly.coeffs.items():
                            w = []
                            for j, e in enumerate(exp, start=1):
                                w += [("y", j)] * e
                            w += [("e", i)]
                            rv = rv + rep_word(w, v).scale(c)
                        assert lv == rv


def test_w_coeff_matches_parabolic_contraction():
    ctx = GlContext.parabolic(2, 2, 1)
    om = OmegaSpec.from_mn_delta(2, 2, 1)
    for A in [(1, -1), (-1, 1), (1, 1, -1)]:
        A = orseq(A)
        for i in range(1, len(A)):
            if A[i - 1] == A[i]:
                continue
            for k in range(3):
                poly = w_coeff(A, i, k, om)
                lhs_word = [("e", i)] + [("y", i)] * k + [("e", i)]
                for v in spanning_vectors(ctx, A, max_deg=1):
                    lv = rep_word(lhs_word, v)
                    rv = lv.scale(0)
                    for exp, c in poly.coeffs.items():
                        w = []
                        for j, e in enumerate(exp, start=1):
                            w += [("y", j)] * e
                        w += [("e", i)]
                        rv = rv + rep_word(w, v).scale(c)
                    assert lv == rv


# ---------------------------------------------------------------------------
# Relations hold in the rewriting engine.


def test_all_relations_reduce_to_zero():
    for n in (2, 3):
        for A in objects_of_size(n):
            for rid in relation_ids():
                if instances(rid, A):
                    assert check_relation(A, rid, OM), (A, rid)


def test_relations_on_a_wider_object():
    A = orseq((1, -1, 1, -1))
    for rid in relation_ids():
        if instances(rid, A):
            assert check_relation(A, rid, OM), rid


def test_check_relation_rejects_empty():
    with pytest.raises(ValueError):
        check_relation((1, 1), "cap_sq", OM)


# ---------------------------------------------------------------------------
# Products: regularity, representation cross-check, associativity, degree.


def random_monomial(rng, A, B, maxdot=2):
    D = rng.choice(enumerate_diagrams(A, B))
    n = D.n
    gamma = [0] * n
    eta = [0] * n
    for i in range(1, n + 1):
        if D.bottom_kind(i) != "arcL":
            gamma[i - 1] = rng.randrange(maxdot + 1)
        if D.top_kind(i) == "arcL":
            eta[i - 1] = rng.randrange(maxdot + 1)
    return Monomial(D, gamma, eta)


def test_products_match_representation(monkeypatch):
    rng = random.Random(11)
    N = 3
    ctx = GlContext.trivial(N)
    om = OmegaSpec.trivial(N)
    far = set()  # (side, word length) of every far-arc transport

    def arc_transport(D, side, p):
        out = _arc_transport(D, side, p)
        far.add((side, len(out[0])))
        return out

    wbcat.clear_caches()  # memoized products would skip the transport
    monkeypatch.setattr(affine, "_arc_transport", arc_transport)
    # 2- and 3-strand objects, then 4-strand objects with (r, t) = (2, 2),
    # whose far arcs need transport words of length >= 2
    for trial in range(56):
        n = rng.choice([2, 3]) if trial < 50 else 4
        group = [o for o in objects_of_size(n) if n < 4 or rt_counts(o) == (2, 2)]
        A, B, C = rng.choice(group), rng.choice(group), rng.choice(group)
        if rt_counts(A) != rt_counts(B) or rt_counts(B) != rt_counts(C):
            continue
        x = DecoratedElement.from_monomial(random_monomial(rng, B, C))
        y = DecoratedElement.from_monomial(random_monomial(rng, A, B))
        prod = multiply(x, y, om)
        assert all(is_regular(m) for m in prod.terms)
        for v in spanning_vectors(ctx, A, max_deg=0):
            assert represent(prod, v) == represent(x, represent(y, v))
    assert {("t", 2), ("b", 2)} <= far


@pytest.mark.parametrize(
    "A, mnd, pairs",
    [((1, -1, 1), (3, 3, 0), 20), ((1, 1, -1, -1), (4, 4, 0), 4)],
    ids=["End(1,-1,1)", "End(1,1,-1,-1)"],
)
def test_memoized_products_match_cold_ones(A, mnd, pairs):
    # level-two products of basis elements, each once right after clearing
    # every cache, then again with the caches warmed by all the others:
    # both agree with the gl_N oracle
    rng = random.Random(len(A))
    p = make_params(*mnd)
    ctx = GlContext.parabolic(*mnd)
    factors = [
        tuple(DecoratedElement.from_monomial(random_monomial(rng, A, A, 1)) for _ in "xy")
        for _ in range(pairs)
    ]
    cold = []
    for x, y in factors:
        wbcat.clear_caches()
        cold.append(cyclo_reduce(multiply(x, y, p.omega), p))
    for (x, y), prod in zip(factors, cold):
        assert cyclo_reduce(multiply(x, y, p.omega), p) == prod
        for _ in range(2):
            slots = tuple(rng.randrange(1, ctx.N + 1) for _ in A)
            v = ModuleVector.basis_vector(ctx, A, slots)
            assert represent(prod, v) == represent(x, represent(y, v))


def test_token_diagram_accepts_a_list():
    assert token_diagram(("e", 1), [1, -1]) is token_diagram(("e", 1), (1, -1))


def test_public_results_are_fresh_elements():
    # memoized elements are shared inside the engine; a result handed out is
    # the caller's own, so changing it changes no later answer
    A = (1, -1, 1)
    p = make_params(3, 3, 0)
    x, y = generator("e", A, 1), generator("y", A, 2)
    calls = [
        lambda: multiply(x, y, p.omega),
        lambda: element_for_word([("e", 1)], A, p.omega),
        lambda: element_for_word([("y", 2), ("e", 1)], A, p.omega),
        lambda: cyclo_reduce(multiply(y, y, p.omega), p),
    ]
    for call in calls:
        first = call()
        want = dict(first.terms)
        first.terms.clear()
        first.terms[identity_monomial(A)] = 7
        assert call().terms == want


def test_associativity_sampled():
    rng = random.Random(5)
    om = OM
    group = [o for o in objects_of_size(2) if rt_counts(o) == (1, 1)]
    for trial in range(30):
        A, B, C, D_ = (rng.choice(group) for _ in range(4))
        x = DecoratedElement.from_monomial(random_monomial(rng, C, D_))
        y = DecoratedElement.from_monomial(random_monomial(rng, B, C))
        z = DecoratedElement.from_monomial(random_monomial(rng, A, B))
        assert multiply(multiply(x, y, om), z, om) == multiply(x, multiply(y, z, om), om)


def test_degree_filtration():
    rng = random.Random(3)
    group = [o for o in objects_of_size(2) if rt_counts(o) == (1, 1)]
    for trial in range(40):
        A, B, C = (rng.choice(group) for _ in range(3))
        x = DecoratedElement.from_monomial(random_monomial(rng, B, C))
        y = DecoratedElement.from_monomial(random_monomial(rng, A, B))
        prod = multiply(x, y, OM)
        if not prod.is_zero():
            assert prod.degree() <= x.degree() + y.degree()


def test_unit_is_neutral():
    rng = random.Random(9)
    group = objects_of_size(3)
    for trial in range(10):
        A, B = rng.choice(group), rng.choice(group)
        if rt_counts(A) != rt_counts(B):
            continue
        x = DecoratedElement.from_monomial(random_monomial(rng, A, B))
        assert multiply(x, DecoratedElement.unit(A), OM) == x
        assert multiply(DecoratedElement.unit(B), x, OM) == x


def rehoming_monomials():
    """Every monomial with one or two dots, each at a point where a dot may
    not rest, on the Hom spaces of 2 and 3 strands and then of the 4-strand
    objects with (r, t) = (2, 2)."""
    out = []
    for n in (2, 3, 4):
        group = [o for o in objects_of_size(n) if n < 4 or rt_counts(o) == (2, 2)]
        for A in group:
            for B in group:
                if rt_counts(A) != rt_counts(B):
                    continue
                for D in enumerate_diagrams(A, B):
                    bad = [(s, i) for s in "bt" for i in range(1, n + 1) if not D.rests(s, i)]
                    for k in (1, 2):
                        for dots in combinations_with_replacement(bad, k):
                            gamma, eta = [0] * n, [0] * n
                            for side, i in dots:
                                (gamma if side == "b" else eta)[i - 1] += 1
                            out.append(Monomial(D, gamma, eta))
    return out


def test_rehoming_bytes_are_pinned():
    # the normal forms at (3,3,1), digest recorded before the bottom and top
    # push routines became one
    om = OmegaSpec.from_mn_delta(3, 3, 1)
    monos = rehoming_monomials()
    forms = [element_to_json(reduce(DecoratedElement.from_monomial(m), om)) for m in monos]
    blob = json.dumps(forms, sort_keys=True, separators=(",", ":")).encode()
    assert len(monos) == 13236
    assert hashlib.sha256(blob).hexdigest() == (
        "c9abf900fec805432866d68217605c77de9836c981e0e0567d081e81ec3f089c"
    )


def _first_of_its_relabeling(v):
    # the slot labels appear first in the order 1, 2, 3, ...
    ((_, slots),) = v.terms
    labels = list(dict.fromkeys(slots))
    return labels == list(range(1, len(labels) + 1))


@pytest.mark.parametrize("A", [(1, 1), (1, 1, -1)], ids=["(1,1)", "(1,1,-1)"])
def test_crossing_top_dot_correction_matches_representation(A):
    # a crossing of like strands x, x + 1 with top dots a != b there adds
    # its divided-difference correction (affine._divided_difference); the
    # relation instances only ever reach it with a = b. Dots rest at the
    # bottom of a through strand, so most of these monomials are
    # irregular: the oracle applies their own words all the same
    ctx, om = GlContext.parabolic(2, 2, 0), OmegaSpec.from_mn_delta(2, 2, 0)
    vectors = list(spanning_vectors(ctx, A, max_deg=1))
    checked = 0
    for x in (x for x in range(1, len(A)) if A[x - 1] == A[x]):
        for D in enumerate_diagrams(A, A):
            for a, b in ((1, 0), (0, 1), (2, 0), (0, 2), (2, 1), (1, 3)):
                eta = [0] * len(A)
                eta[x - 1], eta[x] = a, b
                m = Monomial(D, None, eta)
                crossed = tok_mono(("c", x), m, om)
                for v in vectors:
                    want = rep_token(("c", x), represent(DecoratedElement.from_monomial(m), v))
                    assert represent(crossed, v) == want, (m, v)
                checked += 1
    assert checked == {2: 12, 3: 36}[len(A)]


def test_rehoming_matches_representation(monkeypatch):
    # every path that moves a dot to where it may rest (through strand from
    # the top, adjacent and far arcs from either side) against the gl_3
    # oracle, which applies the irregular monomial's own word. On 2 and 3
    # strands every spanning vector and up to two dots. On 4 strands one dot,
    # and one vector per relabeling of the slots: every generator commutes
    # with permuting the labels of V, so these vectors decide equality
    # (all 81 and two dots would take minutes).
    ctx, om = GlContext.trivial(3), OmegaSpec.trivial(3)
    far = set()  # (side, word length) of every far-arc transport

    def arc_transport(D, side, p):
        out = _arc_transport(D, side, p)
        far.add((side, len(out[0])))
        return out

    wbcat.clear_caches()  # memoized products would skip the transport
    monkeypatch.setattr(affine, "_arc_transport", arc_transport)
    vectors = {}
    for m in rehoming_monomials():
        A = m.bottom
        if len(A) == 4 and m.dots() > 1:
            continue
        if A not in vectors:
            vs = spanning_vectors(ctx, A, max_deg=0)
            vectors[A] = [v for v in vs if len(A) < 4 or _first_of_its_relabeling(v)]
        el = DecoratedElement.from_monomial(m)
        red = reduce(el, om)
        assert red != el and all(map(is_regular, red.terms)), m
        for v in vectors[A]:
            assert represent(red, v) == represent(el, v), (m, v.terms)
    assert {"t", "b"} == {side for side, _ in far}
    assert {("t", 2), ("b", 2)} <= far
    assert len(vectors[(1, 1, -1, -1)]) == 14


def test_push_dot_identity_strand():
    A = orseq((1, 1, -1))
    m = identity_monomial(A)
    el = push_dot(2, m, OM)
    assert el == DecoratedElement.from_monomial(
        Monomial(m.diagram, (0, 1, 0), (0, 0, 0))
    )


# ---------------------------------------------------------------------------
# Exact coefficients and the sharing contract.


def _exact_coeffs(el):
    # an int whenever integral, a Fraction only when not; never a float
    return all(type(c) is int or (type(c) is F and c.denominator != 1) for c in el.terms.values())


def test_level_two_products_keep_integral_coefficients_as_int():
    A, p = (1, -1, 1), make_params(3, 3, 0)
    rng = random.Random(7)
    fractions = 0
    for _ in range(20):
        x = DecoratedElement.from_monomial(random_monomial(rng, A, A, 1), F(rng.choice([1, 2, 3]), 3))
        y = DecoratedElement.from_monomial(random_monomial(rng, A, A, 1), rng.choice([1, -2]))
        prod = multiply(x, y, p.omega)
        stacked = DecoratedElement.from_monomial(random_monomial(rng, A, A, 2), F(3, 2))
        for el in (prod, reduce(prod + stacked, p.omega), cyclo_reduce(prod + stacked, p)):
            assert _exact_coeffs(el)
            fractions += any(type(c) is F for c in el.terms.values())
    assert fractions  # non-integral coefficients do occur


def test_cyclo_reduce_leaves_a_shared_reduced_element_alone(monkeypatch):
    # affine.reduce may hand back an element that others hold too (a memoized
    # one); cyclo_reduce must eliminate dot stacks in a copy of its terms
    A, p = (1, -1), make_params(2, 2, 0)
    y1 = generator("y", A, 1)
    shared = multiply(y1, y1, p.omega) + y1.scale(F(1, 2))
    want = cyclo_reduce(shared, p)
    before = dict(shared.terms)
    monkeypatch.setattr("wbcat.cyclotomic.affine_reduce", lambda x, omega: shared)
    assert cyclo_reduce(shared, p) == want
    assert shared.terms == before

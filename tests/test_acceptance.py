"""Acceptance gate: nine headline checks, one test per criterion, exact
rational equality throughout.

Criterion 8's first clause checks that the strip walks account for the
dimension of the level-two quotient: grouping the walks by endpoint, the sum
of SQUARED endpoint multiplicities equals 2^{r+t}(r+t)! and equals the size
of the rewriting engine's basis, while the walk count itself is the plain sum
of the multiplicities (2, 6, 20 for r+t = 1, 2, 3 at full strip width).
docs/decisions.md explains why the dimension is the squared sum and lists
the multiplicities.
"""

import random
import time
import warnings
from collections import Counter
from fractions import Fraction as F
from itertools import product

from wbcat import affine, cyclotomic, glrep, young4
from wbcat.affine import OmegaSpec, w_coeff
from wbcat.cyclotomic import make_params
from wbcat.diagrams import (
    DecoratedElement,
    Monomial,
    enumerate_diagrams,
    identity_monomial,
    orseq,
)
from wbcat.exact import (
    LaurentSeries,
    MultiPoly,
    nullspace,
    series_mul,
    series_star,
    sparse_rank,
)
from wbcat.glrep import (
    GlContext,
    apply_word,
    extract_omega,
    faithfulness_rank,
    spanning_vectors,
    y1_minimal_poly,
    y_apply,
)
from wbcat.relations import all_instances, resolve_coeff

GENERIC_OMEGA = OmegaSpec.from_list(
    [F(3, 2), F(-2, 5), F(7, 3), F(1, 4), F(-11, 6), F(5), F(2, 7), F(-3, 8),
     F(9, 5), F(1, 6), F(-4, 9), F(13, 7), F(2), F(-1, 3), F(8, 11), F(6, 5)]
)


def test_criterion_1_dimension_formula():
    t0 = time.monotonic()
    p = make_params(4, 4, 0)
    expected = {1: 2, 2: 8, 3: 48, 4: 384}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for k, want in expected.items():
            for A in product((1, -1), repeat=k):
                assert len(cyclotomic.basis(A, p)) == want, (A, want)
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"dimension scan took {elapsed:.1f}s"
    print(f"criterion 1 PASS: basis sizes 2/8/48/384 on all orderings ({elapsed:.2f}s)")


def test_criterion_2_faithfulness():
    # every 2- and 3-strand ordering; where the basis theorem's hypotheses
    # fail (no upward strand) the monomials only span, so the rank is
    # bounded by their number and no dimension is claimed
    t0 = time.monotonic()
    certified = 0
    for delta in (0, 1):
        p = make_params(3, 3, delta)
        for A in [A for k in (2, 3) for A in product((1, -1), repeat=k)]:
            rank = faithfulness_rank(A, p)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                size = len(cyclotomic.basis(A, p))
            if cyclotomic.basis_hypotheses(A, p):
                assert rank == size, (A, delta, rank, size)
                certified += 1
            else:
                assert set(A) == {-1}
                assert 0 < rank <= size, (A, delta, rank, size)
    assert certified == 20
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"faithfulness scan took {elapsed:.1f}s"
    print(f"criterion 2 PASS: rank equals basis size on 20 of 24 cases ({elapsed:.1f}s)")


def test_criterion_2_faithfulness_four_strands():
    t0 = time.monotonic()
    A, p = (1, 1, -1, -1), make_params(4, 4, 0)
    rank = faithfulness_rank(A, p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        size = len(cyclotomic.basis(A, p))
    assert rank == 384 == size, (rank, size)
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"4-strand faithfulness took {elapsed:.1f}s"
    print(f"criterion 2 PASS: rank 384 on End(1,1,-1,-1) at (4,4,0) ({elapsed:.1f}s)")


def _relation_failures(ctx, A, omega, vecs_full, vecs_slot):
    bad = []
    for rid, (lhs, rhs) in all_instances(A):
        words = [lhs] + [w for _, w in rhs]
        yfree = all(t[0] != "y" for w in words for t in w)
        # non-y generators act on the tensor slots alone, so y-free words
        # are decided by the slot part of the basis
        for v in vecs_slot if yfree else vecs_full:
            left = apply_word(lhs, v)
            right = None
            for coeff, word in rhs:
                part = apply_word(word, v).scale(resolve_coeff(coeff, omega))
                right = part if right is None else right + part
            if left != right:
                bad.append((rid, lhs))
    return bad


def test_criterion_3_functor_relations():
    count = 0
    for N in (2, 3, 4):
        ctx = GlContext.trivial(N)
        om = lambda k: N * F(N, 2) ** k
        for k in (1, 2, 3):
            for A in product((1, -1), repeat=k):
                vecs = list(spanning_vectors(ctx, A, 0))
                bad = _relation_failures(ctx, A, om, vecs, vecs)
                assert not bad, (N, A, bad[:3])
                count += 1
    for delta in (0, 1):
        ctx = GlContext.parabolic(2, 2, delta)
        p = make_params(2, 2, delta)
        for k in (1, 2, 3):
            for A in product((1, -1), repeat=k):
                full = list(spanning_vectors(ctx, A, 2))
                slot = list(spanning_vectors(ctx, A, 0))
                bad = _relation_failures(ctx, A, p.omega, full, slot)
                assert not bad, (delta, A, bad[:3])
                count += 1
    print(f"criterion 3 PASS: all relation instances hold on {count} contexts")


def test_criterion_4_omega_triangle():
    checked = 0
    for (m, n) in ((2, 2), (3, 2)):
        for delta in (-1, 0, 1):
            if delta in (m, n):
                continue
            ctx = GlContext.parabolic(m, n, delta)
            p = make_params(m, n, delta)
            for k in range(9):
                rep = extract_omega(ctx, k)
                rec = p.omega(k)
                closed = cyclotomic.w1_closed_form(p, k)
                assert rep == rec == closed, (m, n, delta, k, rep, rec, closed)
                checked += 1
    print(f"criterion 4 PASS: representation = recursion = closed form ({checked} values)")


def test_criterion_5_cyclotomic_factoring():
    # split cases: the minimal polynomial of y_1 on the degree-<=2 span is
    # the quadratic with the level-two roots
    for (m, n, delta) in ((2, 2, 0), (3, 2, 1), (3, 2, -1)):
        p = make_params(m, n, delta)
        ctx = GlContext.parabolic(m, n, delta)
        assert y1_minimal_poly(ctx, 1) == (p.beta1 * p.beta2, -p.beta1 - p.beta2, F(1))
        assert y1_minimal_poly(ctx, -1) == (
            p.beta1s * p.beta2s,
            -p.beta1s - p.beta2s,
            F(1),
        )
        # direct annihilation on every degree-<=2 vector
        for ori, (b1, b2) in ((1, (p.beta1, p.beta2)), (-1, (p.beta1s, p.beta2s))):
            for v in spanning_vectors(ctx, (ori,), 2):
                w = y_apply(y_apply(v, 1), 1) - y_apply(v, 1).scale(b1 + b2) + v.scale(b1 * b2)
                assert w.is_zero(), (m, n, delta, ori)
    # degenerate cases: a repeated root, and the linear factor alone fails
    ctx = GlContext.parabolic(2, 2, 2)  # delta = m: repeated root 0
    assert y1_minimal_poly(ctx, 1) == (F(0), F(0), F(1))
    assert any(not y_apply(v, 1).is_zero() for v in spanning_vectors(ctx, (1,), 2))
    ctx = GlContext.parabolic(3, 2, 2)  # delta = n
    bstar = F(3 + 2, 2)  # beta_1* = (m+n)/2 repeated
    assert y1_minimal_poly(ctx, -1) == (bstar * bstar, -2 * bstar, F(1))
    assert any(
        not (y_apply(v, 1) - v.scale(bstar)).is_zero()
        for v in spanning_vectors(ctx, (-1,), 2)
    )
    print("criterion 5 PASS: level-two quadratics annihilate; degenerate cases are squares")


def test_criterion_6_centre():
    p = make_params(2, 2, 0)
    A = orseq((1, -1))
    exps = cyclotomic._exponents_up_to(2, 3)
    gens = cyclotomic.endomorphism_generators(A)
    comms, keys = [], set()
    for e in exps:
        el = cyclotomic.poly_element(MultiPoly.monomial(e, 1), A)
        blocks = []
        for g in gens:
            c = affine.multiply(el, g, p.omega) - affine.multiply(g, el, p.omega)
            blocks.append(dict(c.terms))
            keys.update(c.terms)
        comms.append(blocks)
    keys = sorted(keys, key=lambda m: m.sort_key())
    rows = [
        {ci: comms[ci][gi].get(kk, F(0)) for ci in range(len(exps))}
        for gi in range(len(gens))
        for kk in keys
    ]
    central = nullspace(rows, len(exps))
    invariant_qc = cyclotomic.center_basis(A, p, 3)
    qc_vectors = [dict(enumerate(q.coeffs.get(e, F(0)) for e in exps)) for q in invariant_qc]
    assert len(central) == len(qc_vectors), (len(central), len(qc_vectors))
    assert sparse_rank(central + qc_vectors) == len(central)
    # spot checks through the public predicates
    assert cyclotomic.is_central(MultiPoly.var(2, 1) + MultiPoly.var(2, 2), A, p)
    assert not cyclotomic.is_central(MultiPoly.var(2, 1), A, p)
    print(f"criterion 6 PASS: central set == invariant Q-cancellation set (dim {len(central)})")


def test_criterion_7_w_series_calculus():
    # involution on random rational series, order 12
    rng = random.Random(20260814)
    for _ in range(20):
        vals = [F(1)] + [
            F(rng.randrange(-9, 10), rng.randrange(1, 9)) for _ in range(12)
        ]
        S = LaurentSeries.from_rationals(vals)
        assert series_star(series_star(S)) == S
    # straightening identity on the length-two equal prefix, order 6
    K = 8
    one = MultiPoly.const(1, 1)
    y = MultiPoly.var(1, 1)
    A = orseq((1, 1, -1))
    S1 = LaurentSeries(1, [one] + [MultiPoly.const(1, GENERIC_OMEGA(k)) for k in range(K)])
    S2 = LaurentSeries(1, [one] + [w_coeff(A, 2, k, GENERIC_OMEGA).extend(1) for k in range(K)])
    sq = LaurentSeries(1, [one, y.scale(-2), y * y] + [MultiPoly.zero(1)] * (K - 2))
    sq_minus = LaurentSeries(
        1, [one, y.scale(-2), y * y - one] + [MultiPoly.zero(1)] * (K - 2)
    )
    assert series_mul(S2, sq_minus).truncate(6) == series_mul(S1, sq).truncate(6)
    # starred-prefix expansion for the (-1, 1) object, k <= 6
    base = LaurentSeries.from_rationals([GENERIC_OMEGA(k) for k in range(8)])
    starred = series_star(base)
    B = orseq((-1, 1))
    for k in range(7):
        q = w_coeff(B, 1, k, GENERIC_OMEGA)
        assert q.is_constant() and q.constant_term() == starred[k].constant_term()
    print("criterion 7 PASS: involution, straightening, starred expansion all exact")


def test_criterion_8_partition_calculus():
    # clause 1: the walks account for the algebra dimension.  A cellular
    # basis is indexed by pairs of walks with a common endpoint, so the
    # dimension 2^{r+t}(r+t)! is the sum of squared endpoint multiplicities,
    # cross-checked against the rewriting engine's basis; the walk count is
    # the plain sum, 2, 6, 20.  Analysis: docs/decisions.md
    p = make_params(3, 3, 0)
    with warnings.catch_warnings():
        # the all-(-1) orderings have r = 0, outside the basis hypotheses;
        # as in criterion 1 the monomial list is still counted there
        warnings.simplefilter("ignore")
        for k, walk_count in ((1, 2), (2, 6), (3, 20)):
            want = 2**k * [1, 1, 2, 6][k]
            for A in product((1, -1), repeat=k):
                walks = young4.enumerate_Y(A, 3, 3, 0)
                mult = Counter(young4.composition_factors(A, 3, 3, 0))
                squares = sum(v * v for v in mult.values())
                assert squares == want, (A, dict(mult))
                assert squares == len(cyclotomic.basis(A, p)), A
                assert len(walks) == sum(mult.values()) == walk_count, A
    print(
        "criterion 8 clause 1 PASS: walk counts 2/6/20; squared endpoint "
        "multiplicities sum to 2^{r+t}(r+t)! = basis size"
    )

    # clause 2: single-step eigenvalues are exactly the quadratic roots
    for (m, n, d) in ((2, 2, 0), (3, 2, 1), (3, 2, -1), (2, 2, -2)):
        p = make_params(m, n, d)
        plus = sorted(
            young4.eigenvalue_tuple(s)[0] for s in young4.enumerate_Y((1,), m, n, d)
        )
        minus = sorted(
            young4.eigenvalue_tuple(s)[0] for s in young4.enumerate_Y((-1,), m, n, d)
        )
        assert plus == sorted([p.beta1, p.beta2])
        assert minus == sorted([p.beta1s, p.beta2s])
    print("criterion 8 clause 2 PASS: r+t = 1 singletons equal the quadratic roots")

    # clause 3: eigenvalue pairs match the representation, per weight space,
    # as multisets (section dimension = generalized eigenspace dimension)
    _check_pairs_against_representation()
    print("criterion 8 clause 3 PASS: pair multisets match the representation")


def _check_pairs_against_representation():
    from wbcat.glrep import ModuleVector, basis_weight, module_monomials

    ctx = GlContext.parabolic(2, 2, 0)
    A = orseq((1, -1))
    seqs = young4.enumerate_Y(A, 2, 2, 0)
    pairs = [tuple(young4.eigenvalue_tuple(s)) for s in seqs]

    def matmul(X, Y):
        n = len(X)
        return [
            [sum(X[i][k] * Y[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    for nu in sorted({s.diagrams[-1].b for s in seqs}):
        keys = [
            (tuple(sorted(mu)), slots)
            for mu in module_monomials(ctx, 4)
            for slots in product(range(1, 5), repeat=2)
            if basis_weight(ctx, A, (tuple(sorted(mu)), slots)) == nu
        ]
        K = len(keys)
        idx = {kk: i for i, kk in enumerate(keys)}
        mats = []
        for i_y in (1, 2):
            cols = []
            for kk in keys:
                v = y_apply(ModuleVector(ctx, A, {kk: F(1)}), i_y)
                col = [F(0)] * K
                for k2, c in v.terms.items():
                    col[idx[k2]] = c
                cols.append(col)
            mats.append([[cols[j][i] for j in range(K)] for i in range(K)])
        pred = {}
        for s, pr in zip(seqs, pairs):
            d = young4.induced_weight_dimension(s.diagrams[-1].b, nu, 2, 2)
            if d:
                pred[pr] = pred.get(pr, 0) + d
        obs = {}
        for pr in sorted(set(pairs)):
            powers = []
            for mat, ev in zip(mats, pr):
                shifted = [
                    [mat[i][j] - (ev if i == j else 0) for j in range(K)]
                    for i in range(K)
                ]
                acc = shifted
                for _ in range(K - 1):
                    acc = matmul(acc, shifted)
                powers.append(acc)
            dim = len(nullspace([dict(enumerate(r)) for r in powers[0] + powers[1]], K))
            if dim:
                obs[pr] = dim
        assert pred == obs and sum(obs.values()) == K, nu


def _random_monomial(rng, A, maxdot=3):
    D = rng.choice(enumerate_diagrams(A, A))
    n = D.n
    gamma = [0] * n
    eta = [0] * n
    for i in range(1, n + 1):
        if D.bottom_kind(i) != "arcL":
            gamma[i - 1] = rng.randrange(maxdot + 1)
        if D.top_kind(i) == "arcL":
            eta[i - 1] = rng.randrange(maxdot + 1)
    return Monomial(D, gamma, eta)


def test_criterion_9_algebra_axioms():
    p = make_params(2, 2, 0)
    A = orseq((1, -1))
    table = cyclotomic.structure_constants(A, p)
    bas = cyclotomic.basis(A, p)
    d = len(bas)
    unit = bas.index(identity_monomial(A))
    by_ij = {}
    for (i, j, k), v in table.items():
        by_ij.setdefault((i, j), {})[k] = v
    for j in range(d):
        for k in range(d):
            want = F(1) if j == k else F(0)
            assert table.get((unit, j, k), F(0)) == want
            assert table.get((j, unit, k), F(0)) == want
    for i in range(d):
        for j in range(d):
            for l in range(d):
                lhs, rhs = {}, {}
                for k, v in by_ij.get((i, j), {}).items():
                    for mm, w in by_ij.get((k, l), {}).items():
                        lhs[mm] = lhs.get(mm, F(0)) + v * w
                for k, v in by_ij.get((j, l), {}).items():
                    for mm, w in by_ij.get((i, k), {}).items():
                        rhs[mm] = rhs.get(mm, F(0)) + v * w
                assert {k: v for k, v in lhs.items() if v} == {
                    k: v for k, v in rhs.items() if v
                }, (i, j, l)
    p33 = make_params(3, 3, 1)
    rng = random.Random(99)
    for trial in range(150):
        el = DecoratedElement.from_monomial(_random_monomial(rng, orseq((1, -1))))
        red = cyclotomic.cyclo_reduce(el, p33)
        assert cyclotomic.cyclo_reduce(red, p33) == red
    for trial in range(50):
        el = DecoratedElement.from_monomial(
            _random_monomial(rng, orseq((1, -1, 1)), maxdot=2)
        )
        red = cyclotomic.cyclo_reduce(el, p33)
        assert cyclotomic.cyclo_reduce(red, p33) == red
    print("criterion 9 PASS: unital associative 8-dim algebra; reduction idempotent on 200 elements")

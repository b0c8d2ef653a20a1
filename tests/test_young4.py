import warnings
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, strategies as st

from wbcat.cyclotomic import make_params
from wbcat.diagrams import orseq
from wbcat.exact import nullspace
from wbcat.glrep import (
    GlContext,
    ModuleVector,
    basis_weight,
    module_monomials,
    y_apply,
)
from wbcat.young4 import (
    FourYoung,
    base_diagram,
    boxes,
    composition_factors,
    eigenvalue_tuple,
    enumerate_Y,
    from_weight,
    gt_weight_multiplicity,
    induced_weight_dimension,
    levi_weight_multiplicity,
)


def test_profile_validity():
    assert from_weight((0, 0, 0, 0), 2, 2, 0).b == (0, 0, 0, 0)
    assert base_diagram(2, 2, 1).b == (-1, -1, 0, 0)
    assert base_diagram(2, 2, -2).b == (2, 2, 0, 0)
    with pytest.raises(ValueError, match="not a 4-Young diagram"):
        from_weight((1, 2, 0, 0), 2, 2, 0)
    with pytest.raises(ValueError, match="not a 4-Young diagram"):
        from_weight((0, 0, -1, 0), 2, 2, 0)
    with pytest.raises(ValueError):
        from_weight((0, 0, 0), 2, 2, 0)
    # mixed signs fine across blocks, monotone within each
    assert from_weight((2, -1, 1, 0), 2, 2, 0)


def test_json_round_trip():
    Y = from_weight((1, -1, 2, 0), 2, 2, 1)
    assert FourYoung.from_json(Y.to_json()) == Y
    assert Y.to_json() == {"b": [1, -1, 2, 0], "m": 2, "n": 2, "delta": 1}


def test_boxes_on_empty():
    Y = from_weight((0, 0, 0, 0), 2, 2, 0)
    assert boxes(Y, "addable_above") == [(1, F(2)), (3, F(0))]
    assert boxes(Y, "addable_below") == [(2, F(0)), (4, F(2))]
    assert boxes(Y, "removable_above") == []
    assert boxes(Y, "removable_below") == []
    with pytest.raises(ValueError):
        boxes(Y, "addable_sideways")


def test_boxes_on_base_block():
    # delta = 2 block below the first two columns
    Y = base_diagram(2, 2, 2)
    # the deepest box of column 1 is the only removable below-box
    assert boxes(Y, "removable_below") == [(1, F(2 + 1 - 1 - 2))]
    # no above-additions in a column with below-boxes
    assert [c for c, _ in boxes(Y, "addable_above")] == [3]


@given(st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_add_then_remove_round_trips(raw):
    b = tuple(sorted(raw[:2], reverse=True) + sorted(raw[2:], reverse=True))
    Y = from_weight(b, 2, 2, 0)
    for add_mode, rem_mode, shift in (
        ("addable_above", "removable_above", 1),
        ("addable_below", "removable_below", -1),
    ):
        for col, content in boxes(Y, add_mode):
            nb = b[: col - 1] + (b[col - 1] + shift,) + b[col:]
            Z = from_weight(nb, 2, 2, 0)
            assert (col, content) in boxes(Z, rem_mode)


def test_rt1_eigenvalues_are_quadratic_roots():
    for (m, n, d) in ((2, 2, 0), (3, 2, 1), (3, 2, -1), (2, 3, 1), (4, 3, 2), (2, 2, -2)):
        p = make_params(m, n, d)
        plus = sorted(eigenvalue_tuple(s)[0] for s in enumerate_Y((1,), m, n, d))
        minus = sorted(eigenvalue_tuple(s)[0] for s in enumerate_Y((-1,), m, n, d))
        assert plus == sorted([p.beta1, p.beta2]), (m, n, d)
        assert minus == sorted([p.beta1s, p.beta2s]), (m, n, d)


def test_walk_counts_true_values():
    expected = {1: 2, 2: 6, 3: 20}
    for k, want in expected.items():
        for A in product((1, -1), repeat=k):
            for d in (0, 1):
                assert len(enumerate_Y(A, 3, 3, d)) == want, (A, d)


def test_narrow_strip_warns_and_truncates():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = enumerate_Y((1, -1), 1, 1, 0)
        assert len(caught) == 1
    assert len(out) < 6


def test_walks_obey_slot_rules():
    for A in ((1, -1), (-1, 1), (1, 1, -1)):
        for seq in enumerate_Y(A, 3, 3, 1):
            assert len(seq.diagrams) == len(A) + 1
            for a, (act, col, content) in zip(seq.A, seq.steps):
                if a == 1:
                    assert act in ("add_above", "remove_below")
                else:
                    assert act in ("add_below", "remove_above")
            for Y, Z, (act, col, _) in zip(seq.diagrams, seq.diagrams[1:], seq.steps):
                shift = 1 if act in ("add_above", "remove_below") else -1
                assert Z.b[col - 1] == Y.b[col - 1] + shift
                assert Z.b[: col - 1] == Y.b[: col - 1]
                assert Z.b[col:] == Y.b[col:]


def test_from_weight_round_trips_on_enumerated():
    for seq in enumerate_Y((1, 1, -1), 3, 3, 1):
        for Y in seq.diagrams:
            assert from_weight(Y.weight, 3, 3, 1) == Y


def test_pair_multiset_2_2_0():
    seqs = enumerate_Y((1, -1), 2, 2, 0)
    pairs = sorted(tuple(eigenvalue_tuple(s)) for s in seqs)
    assert pairs == [
        (F(0), F(0)),
        (F(0), F(0)),
        (F(0), F(2)),
        (F(2), F(-2)),
        (F(2), F(0)),
        (F(2), F(2)),
    ]


def test_composition_factors_rt1():
    # one step up: -delta line gains +eps_1 or +eps_{m+1}
    assert composition_factors((1,), 2, 2, 1) == [(-1, -1, 1, 0), (0, -1, 0, 0)]
    # one step down: -eps_{m+n} or -eps_m
    assert composition_factors((-1,), 2, 2, 1) == [
        (-1, -2, 0, 0),
        (-1, -1, 0, -1),
    ]


def test_sum_squared_multiplicities_is_dimension():
    for k in (1, 2, 3):
        for A in product((1, -1), repeat=k):
            for d in (0, 1):
                ends = {}
                for b in composition_factors(A, 3, 3, d):
                    ends[b] = ends.get(b, 0) + 1
                assert sum(v * v for v in ends.values()) == 2**k * [1, 1, 2, 6][k], (A, d)


def test_gt_weight_multiplicities():
    # gl_2 symmetric square: all weights simple
    assert [gt_weight_multiplicity((2, 0), w) for w in ((2, 0), (1, 1), (0, 2))] == [1, 1, 1]
    # gl_3 adjoint: zero weight has multiplicity 2, total dimension 8
    assert gt_weight_multiplicity((1, 0, -1), (0, 0, 0)) == 2
    dim = sum(
        gt_weight_multiplicity((1, 0, -1), w)
        for w in product(range(-1, 2), repeat=3)
        if sum(w) == 0
    )
    assert dim == 8
    # standard Kostka value K_{(2,1),(1,1,1)} = 2
    assert gt_weight_multiplicity((2, 1, 0), (1, 1, 1)) == 2
    # weight outside the hull
    assert gt_weight_multiplicity((1, 0), (2, -1)) == 0
    assert levi_weight_multiplicity((1, 0, 1, 0), (0, 1, 0, 1), 2, 2) == 1


def test_induced_weight_dimension_reconciliation():
    # weight-0 slice of the two-step tensor module, summed over the walk
    # sections, equals the direct basis count (8)
    seqs = enumerate_Y((1, -1), 2, 2, 0)
    total = sum(
        induced_weight_dimension(s.diagrams[-1].b, (0, 0, 0, 0), 2, 2) for s in seqs
    )
    assert total == 8
    assert induced_weight_dimension((1, 0, 0, -1), (0, 0, 0, 0), 2, 2) == 4
    assert induced_weight_dimension((0, -1, 1, 0), (0, 0, 0, 0), 2, 2) == 0


def _matmul(X, Y):
    n = len(X)
    return [
        [sum(X[i][k] * Y[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ]


def _matpow(X, e):
    n = len(X)
    R = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
    for _ in range(e):
        R = _matmul(R, X)
    return R


def test_spectral_calculus_matches_representation():
    # per endpoint weight nu: the multiset {pair: summed section weight-nu
    # dimensions} predicted by the walks equals the joint generalized
    # (y1, y2) eigenspace dimensions computed in the module
    ctx = GlContext.parabolic(2, 2, 0)
    A = orseq((1, -1))
    seqs = enumerate_Y(A, 2, 2, 0)
    pairs = [tuple(eigenvalue_tuple(s)) for s in seqs]
    for nu in sorted({s.diagrams[-1].b for s in seqs}):
        keys = []
        for mu in module_monomials(ctx, 4):
            for slots in product(range(1, 5), repeat=2):
                key = (tuple(sorted(mu)), slots)
                if basis_weight(ctx, A, key) == nu:
                    keys.append(key)
        K = len(keys)
        idx = {k: i for i, k in enumerate(keys)}
        mats = []
        for i_y in (1, 2):
            cols = []
            for k in keys:
                v = y_apply(ModuleVector(ctx, A, {k: F(1)}), i_y)
                col = [F(0)] * K
                for kk, c in v.terms.items():
                    col[idx[kk]] = c  # y_i preserves the weight space
                cols.append(col)
            mats.append([[cols[j][i] for j in range(K)] for i in range(K)])
        pred = {}
        for s, pr in zip(seqs, pairs):
            d = induced_weight_dimension(s.diagrams[-1].b, nu, 2, 2)
            if d:
                pred[pr] = pred.get(pr, 0) + d
        obs = {}
        for pr in sorted(set(pairs)):
            shifted = [
                [
                    [m[i][j] - (e if i == j else 0) for j in range(K)]
                    for i in range(K)
                ]
                for m, e in zip(mats, pr)
            ]
            stacked = _matpow(shifted[0], K) + _matpow(shifted[1], K)
            dim = len(nullspace([dict(enumerate(r)) for r in stacked], K))
            if dim:
                obs[pr] = dim
        assert pred == obs, nu
        assert sum(obs.values()) == K, nu

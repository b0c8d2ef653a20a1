from fractions import Fraction as F
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from wbcat.diagrams import generator
from wbcat.exact import (
    _int_row,
    LaurentSeries,
    MultiPoly,
    nullspace,
    num,
    poly_parse,
    row_echelon,
    rref,
    series_div,
    series_mul,
    series_one,
    series_star,
    sparse_rank,
)
from wbcat.glrep import GlContext, ModuleVector


def test_poly_basic_ops():
    y1 = MultiPoly.var(2, 1)
    y2 = MultiPoly.var(2, 2)
    p = (y1 + y2) * (y1 - y2)
    assert p == y1 * y1 - y2 * y2
    assert (p - p).is_zero()
    assert p.total_degree() == 2


def test_poly_scale_and_eval():
    y1 = MultiPoly.var(1, 1)
    p = y1 * y1 + y1.scale(F(1, 2)) - 3
    assert p == MultiPoly(1, {(2,): 1, (1,): F(1, 2), (0,): -3})


_coeffs = st.one_of(
    st.integers(-3, 3),
    st.builds(F, st.integers(-6, 6), st.integers(1, 4)),
)


def _reference_sum(parts):
    """sum c * p over the (c, p) in parts, each p a dict exponent -> Fraction."""
    acc = {}
    for c, p in parts:
        for e, v in p.items():
            acc[e] = acc.get(e, F(0)) + F(c) * v
    return {e: v for e, v in acc.items() if v}


def _reference_product(p, q):
    return _reference_sum(
        (c1, {tuple(a + b for a, b in zip(e1, e2)): c2 for e2, c2 in q.items()})
        for e1, c1 in p.items()
    )


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_poly_arithmetic_matches_a_fraction_reference(data):
    # few exponents, so that sums cancel to zero often
    nvars = data.draw(st.integers(0, 3))
    polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * nvars), _coeffs, max_size=5)
    a, b = data.draw(polys), data.draw(polys)
    b.update({e: -v for e, v in list(a.items())[: data.draw(st.integers(0, 2))]})
    c = data.draw(_coeffs)
    extra = data.draw(st.integers(0, 2))
    p, q = MultiPoly(nvars, a), MultiPoly(nvars, b)
    ra, rb = _reference_sum([(1, a)]), _reference_sum([(1, b)])
    cases = [
        (p, nvars, ra),
        (p + q, nvars, _reference_sum([(1, ra), (1, rb)])),
        (p - q, nvars, _reference_sum([(1, ra), (-1, rb)])),
        (-p, nvars, _reference_sum([(-1, ra)])),
        (p.scale(c), nvars, _reference_sum([(c, ra)])),
        (c * p, nvars, _reference_sum([(c, ra)])),
        (p * q, nvars, _reference_product(ra, rb)),
        (p.extend(nvars + extra), nvars + extra, {e + (0,) * extra: v for e, v in ra.items()}),
    ]
    for got, got_nvars, want in cases:
        assert got.nvars == got_nvars
        assert {e: F(v) for e, v in got.coeffs.items()} == want
        # the package-wide rule: an int when integral, a Fraction otherwise
        assert all(type(v) is (int if F(v).denominator == 1 else F) for v in got.coeffs.values())
    assert type(p.constant_term()) is F and p.constant_term() == ra.get((0,) * nvars, 0)


def test_poly_str_roundtrip_via_parser():
    p = poly_parse("2*y1^2 - 1/3*y2 + 4", 2)
    q = poly_parse(str(p), 2)
    assert p == q


def test_poly_parse_examples():
    assert poly_parse("y1", 2) == MultiPoly.var(2, 1)
    assert poly_parse("y1*y1", 1) == poly_parse("y1^2", 1)
    assert poly_parse("(y1+1)^2", 1) == poly_parse("y1^2 + 2*y1 + 1", 1)
    assert poly_parse("3/2", 1) == MultiPoly.const(1, F(3, 2))
    assert poly_parse("-y1 - -1", 1) == poly_parse("1 - y1", 1)
    with pytest.raises(ValueError):
        poly_parse("y0", 1)
    with pytest.raises(ValueError):
        poly_parse("y1 +", 1)
    with pytest.raises(ValueError):
        poly_parse("y1 ^ y1", 1)


def test_series_mul_truncation():
    # (1 + u^-1)(1 - u^-1) = 1 - u^-2
    f = LaurentSeries.from_rationals([1, 1, 0])
    g = LaurentSeries.from_rationals([1, -1, 0])
    assert series_mul(f, g) == LaurentSeries.from_rationals([1, 0, -1])
    # order of a product is the min of the orders
    assert series_mul(f.truncate(1), g).order == 1


def test_series_div_geometric():
    one = series_one(0, 6)
    g = LaurentSeries.from_rationals([1, -1] + [0] * 5)
    assert series_div(one, g) == LaurentSeries.from_rationals([1] * 7)


def test_series_div_requires_unit():
    f = series_one(1, 2)
    g = LaurentSeries(1, [MultiPoly.var(1, 1), MultiPoly.const(1, 1), MultiPoly.zero(1)])
    with pytest.raises(ValueError):
        series_div(f, g)


def test_star_of_constant():
    # star of the constant series c is c * sum_k c^k u^-k... check directly:
    # f = c (all higher coefficients zero); f(-u) = c;
    # c/(1 - c u^-1) = c + c^2 u^-1 + c^3 u^-2 + ...
    c = F(3)
    f = LaurentSeries.from_rationals([c, 0, 0, 0])
    s = series_star(f)
    assert s == LaurentSeries.from_rationals([c, c**2, c**3, c**4])


def test_star_polynomial_coefficients():
    y = MultiPoly.var(1, 1)
    f = LaurentSeries(1, [MultiPoly.const(1, 2), y, MultiPoly.zero(1)])
    s = series_star(series_star(f))
    assert s == f


@st.composite
def rational_series(draw, order=12):
    vals = draw(
        st.lists(
            st.fractions(min_value=-30, max_value=30, max_denominator=9),
            min_size=order + 1,
            max_size=order + 1,
        )
    )
    return LaurentSeries.from_rationals(vals)


@given(rational_series())
@settings(max_examples=60, deadline=None)
def test_star_is_an_involution(f):
    assert series_star(series_star(f)) == f


@given(rational_series(order=8), rational_series(order=8))
@settings(max_examples=40, deadline=None)
def test_mul_commutes(f, g):
    assert series_mul(f, g) == series_mul(g, f)


@given(rational_series(order=8))
@settings(max_examples=40, deadline=None)
def test_div_inverts_mul(f):
    g = LaurentSeries.from_rationals([1, 2, -3, F(1, 2), 0, 1, 0, 0, 5])
    assert series_div(series_mul(f, g), g) == f


def test_row_echelon_rank():
    rows = [
        [F(1), F(2), F(3)],
        [F(2), F(4), F(6)],
        [F(0), F(1), F(1)],
    ]
    assert row_echelon([dict(enumerate(r)) for r in rows]) == 2


def _dense_rref(rows):
    """Reference: Gauss-Jordan on dense rows, kept independent of the
    package. The nonzero rows of the reduced row echelon form, as Fractions."""
    rows = [[F(x) for x in r] for r in rows]
    out = []
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in rows if r[col]), None)
        if piv is None:
            continue
        rows.remove(piv)
        piv = [x / piv[col] for x in piv]
        rows = [[a - r[col] * b for a, b in zip(r, piv)] for r in rows]
        out = [[a - r[col] * b for a, b in zip(r, piv)] for r in out] + [piv]
    return out


def _dense(rows, keys):
    return [[r.get(k, 0) for k in keys] for r in rows]


def _check_sparse_rank(rows_sparse):
    keys = sorted({k for r in rows_sparse for k in r})
    before = [dict(r) for r in rows_sparse]
    rank = sparse_rank(rows_sparse)
    assert rows_sparse == before
    assert [list(r) for r in rows_sparse] == [list(r) for r in before]
    assert rank == len(_dense_rref(_dense(rows_sparse, keys)))
    return rank


def _check_rref_and_nullspace(rows, ncols):
    keys = range(ncols)
    before = [dict(r) for r in rows]
    reduced = rref(rows)
    assert rows == before
    assert _dense(reduced, keys) == _dense_rref(_dense(rows, keys))
    pivots = [next(iter(r)) for r in reduced]
    assert pivots == sorted(set(pivots))
    for r, pc in zip(reduced, pivots):
        assert r[pc] == 1
        assert all(v and (type(v) is int or v.denominator != 1) for v in r.values())
        assert not set(pivots) & set(r) - {pc}  # pivot columns are zero elsewhere
    basis = nullspace(rows, ncols)
    assert len(basis) == ncols - sparse_rank(rows)
    free = [c for c in keys if c not in pivots]
    assert [sorted(set(v) & set(free)) for v in basis] == [[c] for c in free]
    assert all(v[c] == 1 for v, c in zip(basis, free))
    for v in basis:
        assert all(sum(x * v.get(k, 0) for k, x in r.items()) == 0 for r in rows)


def test_sparse_rank_matches_dense():
    rows_dense = [
        [F(1), F(0), F(2)],
        [F(0), F(1), F(1)],
        [F(1), F(1), F(3)],
        [F(2), F(1), F(5)],
    ]
    rows_sparse = [
        {j: v for j, v in enumerate(r) if v} for r in rows_dense
    ]
    assert _check_sparse_rank(rows_sparse) == 2
    # full rank
    assert _check_sparse_rank([{0: F(1)}, {1: F(1), 2: F(1)}, {0: F(1), 2: F(1)}]) == 3
    # duplicate rows
    assert _check_sparse_rank([{0: F(1), 3: F(2)}, {0: F(1), 3: F(2)}, {1: F(5)}]) == 2
    # the last row is 2*row0 - row1/3 + row2
    rows = [{0: F(1), 1: F(2)}, {1: F(3), 4: F(-6)}, {2: F(1), 4: F(1)}]
    rows.append({0: F(2), 1: F(3), 2: F(1), 4: F(3)})
    assert _check_sparse_rank(rows) == 3
    # non-integer entries: rows 1/2 (1, 1/3) and 3/7 (1, 1/3) are parallel
    rows = [{0: F(1, 2), 1: F(1, 6)}, {0: F(3, 7), 1: F(1, 7)}, {1: F(-2, 9), 2: F(5, 4)}]
    assert _check_sparse_rank(rows) == 2
    # explicit zero values are ignored, and an all-zero row adds nothing
    rows = [{0: F(0), 1: F(1)}, {0: F(0), 1: F(0)}, {}, {0: F(2), 1: F(0)}]
    assert _check_sparse_rank(rows) == 2
    # tuple keys, shaped like faithfulness_rank's (beta, module key)
    rows = [
        {((1, 2), (0, 1)): F(1), ((2, 1), (1, 0)): F(-1)},
        {((1, 2), (0, 1)): F(2), ((2, 1), (1, 0)): F(-2)},
        {((2, 1), (1, 0)): F(1), ((2, 2), (1, 1)): F(3)},
    ]
    assert _check_sparse_rank(rows) == 2
    assert sparse_rank([]) == 0


def test_sparse_rank_clears_denominators():
    # rows 1 and 2 are 3 * row 0 and 7/5 * row 3; ints and Fractions mixed
    rows = [{0: F(1, 3), 1: 2}, {0: 1, 1: 6}, {1: F(5, 7), 2: 3, 3: F(-1, 3)}]
    rows.append({1: 1, 2: F(21, 5), 3: F(-7, 15)})
    assert _check_sparse_rank(rows) == 2
    rows[1][2] = F(1, 1000)
    assert _check_sparse_rank(rows) == 3


def test_sparse_rank_integral_fractions_become_ints():
    for row in ({0: F(4, 2), 1: F(-6, 3), 2: 0}, {0: F(1, 3), 1: 5, 2: F(5, 7)}):
        scaled = _int_row(row)
        assert all(type(x) is int for x in scaled.values())
        assert set(scaled) == {k for k, x in row.items() if x}
        assert all(scaled[k] * row[0] == scaled[0] * row[k] for k in scaled)
    assert _int_row({0: F(4, 2), 1: 3}) == {0: 2, 1: 3}
    # a row of nonzero ints is copied; the input is never modified
    ints = {0: 3, 5: -2, 2: 7}
    scaled = _int_row(ints)
    assert scaled == ints and list(scaled) == [0, 5, 2] and scaled is not ints
    scaled[0] = 1
    assert ints == {0: 3, 5: -2, 2: 7}
    assert _int_row({0: 3, 1: 0, 2: -4}) == {0: 3, 2: -4}
    assert _int_row({0: 3, 1: F(1, 2), 2: -4}) == {0: 6, 1: 1, 2: -8}
    assert _check_sparse_rank([{0: F(4, 2), 1: F(6, 3)}, {0: 1, 1: 1}, {1: F(9, 3)}]) == 2


def test_half_integer_rows_match_their_doubles():
    # rows of an odd-N representation carry halves; _int_row scales them in
    # int arithmetic, and the answers equal those of the doubled int rows
    rng = random.Random(7)
    for _ in range(60):
        halves = [
            {k: F(rng.randint(-7, 7), 2) if rng.random() < 0.6 else rng.randint(-3, 3)
             for k in rng.sample(range(6), rng.randint(0, 5))}
            for _ in range(rng.randint(1, 6))
        ]
        a, b = halves[0], halves[-1]
        halves.append({k: 3 * a.get(k, 0) - b.get(k, 0) for k in set(a) | set(b)})  # dependent
        doubled = [{k: int(2 * v) for k, v in row.items()} for row in halves]
        assert all(type(x) is int for row in halves for x in _int_row(row).values())
        assert sparse_rank(halves) == sparse_rank(doubled)
        assert rref(halves) == rref(doubled)
        assert nullspace(halves, 6) == nullspace(doubled, 6)
    assert _int_row({0: F(1, 2), 1: 3, 2: F(-3, 4), 3: F(5)}) == {0: 2, 1: 12, 2: -3, 3: 20}


def test_sparse_rank_large_entries():
    # det = -1 on 10**17-sized entries, then a row that is row0 + row1
    big = 10**17
    rows = [{0: big, 1: big + 1}, {0: big + 1, 1: big + 2}, {0: 2 * big + 1, 1: 2 * big + 3}]
    assert _check_sparse_rank(rows) == 2
    rows = [{0: big, 1: 1, 2: big - 1}, {0: 3, 1: big, 2: 7}, {0: big * big, 2: 1}]
    assert _check_sparse_rank(rows) == 3


def test_sparse_rank_with_growing_coefficients():
    # the Hilbert matrix has full rank; after clearing denominators its
    # pivots are large, so rows are scaled and their entries grow
    n = 8
    hilbert = [{j: F(1, i + j + 1) for j in range(n)} for i in range(n)]
    assert _check_sparse_rank(hilbert) == n
    # a combination of the rows with large coefficients adds nothing
    extra = {j: sum(F(c) * hilbert[i][j] for i, c in enumerate((3, -7, 11, 2, 5, -1, 9, 4)))
             for j in range(n)}
    assert _check_sparse_rank(hilbert[:4] + [extra] + hilbert[4:]) == n
    # pivots 2 and 3 with gcd 1: row <- 2 row - 3 pivot
    assert _check_sparse_rank([{0: 2, 1: 3}, {0: 3, 1: 5}, {0: 5, 1: 8}]) == 2
    # the last row is half the sum of the first two: 2 row - pivot, then the
    # second pivot cancels what is left
    assert _check_sparse_rank([{0: 2, 2: 1}, {1: 2, 2: 1}, {0: 1, 1: 1, 2: 1}]) == 2
    assert _check_sparse_rank([{0: 4, 1: 6, 2: 2}, {0: 6, 1: 9, 2: 3}]) == 1


def test_sparse_rank_leaves_the_rows_alone():
    rows = [{0: F(1, 3), 1: F(4, 2), 2: 0}, {0: 1, 1: 6}, {1: F(5, 7), 2: 3}]
    copies = [dict(r) for r in rows]
    ids = [[id(x) for x in r.values()] for r in rows]
    assert sparse_rank(rows) == 2
    assert rows == copies and [list(r) for r in rows] == [list(r) for r in copies]
    assert [[id(x) for x in r.values()] for r in rows] == ids
    assert [type(x) for x in rows[0].values()] == [F, F, int]


_ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.integers(-(10**18), 10**18),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.integers(-6, 6).map(lambda n: F(2 * n, 2)),  # integral Fractions
)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.dictionaries(st.integers(0, 5), _ENTRIES, max_size=4), max_size=6),
    st.lists(
        st.tuples(
            st.integers(0, 5),
            st.integers(0, 5),
            st.fractions(min_value=-2, max_value=2, max_denominator=3),
        ),
        max_size=3,
    ),
)
def test_sparse_rank_property(rows, combos):
    # append some rational combinations of earlier rows so that dependent
    # rows occur, including ones that are not an integral combination
    rows = [dict(r) for r in rows]
    for i, j, c in combos:
        if rows:
            a, b = rows[i % len(rows)], rows[j % len(rows)]
            rows.append({k: a.get(k, 0) + c * b.get(k, 0) for k in set(a) | set(b)})
    _check_sparse_rank(rows)
    _check_rref_and_nullspace(rows, 6)


def test_integer_rows_stay_exact():
    # determinant -1; a float division (1 / 10**17) rounds it to rank 1
    rows = [dict(enumerate(r)) for r in ([10**17, 10**17 + 1], [10**17 + 1, 10**17 + 2])]
    assert sparse_rank(rows) == 2
    assert row_echelon(rows) == 2
    reduced = rref(rows)
    assert reduced == [{0: 1}, {1: 1}]
    assert all(type(x) is int for r in reduced for x in r.values())


def test_nullspace():
    rows = [{0: F(1), 1: F(1), 2: F(0)}, {2: F(1)}]
    assert nullspace(rows, 3) == [{1: 1, 0: -1}]
    # a zero matrix leaves every column free; rows over fewer columns too
    assert nullspace([], 2) == nullspace([{}], 2) == [{0: 1}, {1: 1}]
    assert nullspace([{1: F(1, 2), 3: 2}], 4) == [{0: 1}, {2: 1}, {3: 1, 1: -4}]


def test_num_is_exact_and_keeps_integral_values_as_int():
    assert [num(x) for x in (3, F(6, 3), "4/2", "-3/6", F(1, 3))] == [3, 2, 2, F(-1, 2), F(1, 3)]
    assert [type(num(x)) for x in (F(6, 3), "4/2", F(1, 3))] == [int, int, F]
    for bad in (0.1, 1.0, None):
        with pytest.raises(TypeError):
            num(bad)


def test_scaling_by_a_float_is_refused():
    # no floating point anywhere: both engines refuse an inexact scalar
    v = ModuleVector.basis_vector(GlContext.trivial(2), (1, -1), (1, 1))
    x = generator("y", (1, -1), 1)
    for scale in (v.scale, x.scale):
        with pytest.raises(TypeError):
            scale(0.1)
    assert v.scale(F(4, 2)).terms == {((), (1, 1)): 2}
    assert [type(c) for c in x.scale(F(4, 2)).terms.values()] == [int]

import hashlib
import pickle
import subprocess
import sys
from copy import deepcopy
from fractions import Fraction as F
from functools import lru_cache
from itertools import permutations, product

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import wbcat
from wbcat import cli, glrep
from wbcat.diagrams import (
    DecoratedElement,
    Monomial,
    cyclotomic_monomials,
    generator,
    token_diagram,
    word_for_monomial,
)
from wbcat.exact import clean, lincomb, sparse_rank
from wbcat.glrep import (
    GlContext,
    ModuleVector,
    apply_E,
    apply_E_at,
    apply_generator,
    apply_token,
    apply_trie,
    apply_word,
    extract_omega,
    faithfulness_rank,
    identity_instances,
    levi_inputs,
    omega_pair,
    represent,
    spanning_vectors,
    u_minus_generators,
    verify_section8,
    word_trie,
    y1_minimal_poly,
    y_apply,
    zero_vector,
)
from wbcat.relations import all_instances, instances, resolve_coeff


class Params:
    def __init__(self, m, n, delta):
        self.m, self.n, self.delta = m, n, delta


def test_apply_E_slots():
    ctx = GlContext.trivial(3)
    v = ModuleVector.basis_vector(ctx, (1,), (2,))
    w = apply_E(1, 2, v)
    assert w == ModuleVector.basis_vector(ctx, (1,), (1,))
    vstar = ModuleVector.basis_vector(ctx, (-1,), (1,))
    w = apply_E(1, 2, vstar)
    assert w == ModuleVector.basis_vector(ctx, (-1,), (2,)).scale(-1)


def test_apply_E_module_weight():
    ctx = GlContext.parabolic(2, 2, 3)
    v = ModuleVector.basis_vector(ctx, (1,), (3,))
    w = apply_E(1, 1, v)  # E_11 acts only on the module factor here
    assert w == v.scale(-3)
    w = apply_E(4, 4, v)
    assert w.is_zero()


def test_apply_E_module_lowering():
    ctx = GlContext.parabolic(2, 2, 1)
    v = ModuleVector.basis_vector(ctx, (1,), (1,))
    w = apply_E(3, 1, v)
    # E_31 z = x_31 z on the module factor; slot part moves v_1 -> nothing
    assert w.coeff(((3, 1),), (1,)) == 1


def test_apply_E_refuses_what_is_not_gl_N_on_v():
    # E_ab needs 1 <= a, b <= N and a factor of v's object: E_71 once gave
    # x_71 z (x) v_7, outside gl_4
    ctx = GlContext.parabolic(2, 2, 0)
    v = ModuleVector.basis_vector(ctx, (1,), (1,))
    for a, b in ((7, 1), (1, 5), (0, 1), (2, 0)):
        with pytest.raises(ValueError, match="1 <= a, b <= N"):
            apply_E(a, b, v)
        with pytest.raises(ValueError, match="1 <= a, b <= N"):
            apply_E_at(a, b, v, 1)
    for pos in (-1, 2, 5):
        with pytest.raises(ValueError, match="factor index"):
            apply_E_at(1, 2, v, pos)


def test_vector_sums_refuse_another_module():
    # + and - once checked only the object: a vector of parabolic(2,2,0)
    # plus one of parabolic(2,2,1) came back in the first module
    ctx = GlContext.parabolic(2, 2, 0)
    v = ModuleVector.basis_vector(ctx, (1, -1), (1, 2))
    for other in (GlContext.parabolic(2, 2, 1), GlContext.trivial(4)):
        w = ModuleVector.basis_vector(other, (1, -1), (1, 2))
        with pytest.raises(ValueError, match="module mismatch"):
            v + w
        with pytest.raises(ValueError, match="module mismatch"):
            v - w
        assert v != w
    with pytest.raises(ValueError, match="object mismatch"):
        v + ModuleVector.basis_vector(ctx, (-1, 1), (1, 2))
    # equal contexts built apart are one module
    u = ModuleVector.basis_vector(GlContext.parabolic(2, 2, 0), (1, -1), (2, 2))
    assert (v + u).terms == {((), (1, 2)): 1, ((), (2, 2)): 1}
    assert (v - v).is_zero() and v == ModuleVector.basis_vector(GlContext.parabolic(2, 2, 0), (1, -1), (1, 2))


def test_vector_keys_are_checked_like_basis_keys():
    # ModuleVector(ctx, A, terms) once took any key: two slots on a
    # one-strand object, slot 9 outside gl_4 and the non-symbol x_12 went
    # in, and y_1 then gave x[(1,2),(9,1)]z (x) [1]
    ctx = GlContext.parabolic(2, 2, 0)
    with pytest.raises(ValueError, match="slot count mismatch"):
        ModuleVector(ctx, (1,), {((), (1, 7)): 1, (((1, 2),), (9,)): 2})
    for mu, slots, message in (
        ((), (1, 7), "slot count mismatch"),
        ((), (), "slot count mismatch"),
        ((), (9,), "slot index out of range"),
        ((), (0,), "slot index out of range"),
        ((), (1.0,), "slot index out of range"),
        (((1, 2),), (1,), "x_12 is not a symbol of u\\^-"),
        (((3, 1), (2, 4)), (1,), "x_24 is not a symbol of u\\^-"),
    ):
        for build in (
            lambda: ModuleVector(ctx, (1,), {(mu, slots): 1}),
            lambda: ModuleVector.basis_vector(ctx, (1,), slots, mu),
        ):
            with pytest.raises(ValueError, match=message):
                build()
    # a monomial is sorted as it goes in, so two spellings of one key add up
    v = ModuleVector(ctx, (1,), {(((4, 2), (3, 1)), (1,)): 1, (((3, 1), (4, 2)), (1,)): 2})
    assert v.terms == {(((3, 1), (4, 2)), (1,)): 3}
    assert v == ModuleVector.basis_vector(ctx, (1,), (1,), ((4, 2), (3, 1))).scale(3)


_PICKLED = """
import pickle, sys
from wbcat.glrep import GlContext, ModuleVector, apply_word, module_monomials
ctx = GlContext.parabolic(2, 2, 1)
for mu in reversed(module_monomials(ctx, 3)):  # other indices than the pickling process
    ModuleVector.basis_vector(ctx, (1,), (1,), mu)
v = pickle.loads(sys.stdin.buffer.read())
w = apply_word(WORD, ModuleVector.basis_vector(ctx, (1, -1, -1), (3, 3, 1), ((3, 1),)))
print(v == w, v.terms == w.terms, list(v.terms) == list(w.terms), repr(v))
"""


def test_keys_survive_pickling_into_a_fresh_interpreter():
    # a key indexes its process's table of monomials: a pickle carries the
    # basis keys (mu, slots), and the loading process indexes them anew
    ctx = GlContext.parabolic(2, 2, 1)
    word = [("y", 1), ("y", 2), ("e", 1), ("y", 2), ("c", 2)]
    v = apply_word(word, ModuleVector.basis_vector(ctx, (1, -1, -1), (3, 3, 1), ((3, 1),)))
    assert len({mu for mu, _ in v.terms}) >= 3
    code = _PICKLED.replace("WORD", repr(word))
    r = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(v), capture_output=True)
    assert r.returncode == 0 and r.stdout.decode() == f"True True True {v!r}\n", r.stderr
    assert pickle.loads(pickle.dumps(v)) == v == deepcopy(v)


def test_keys_survive_clear_caches():
    ctx = GlContext.parabolic(2, 2, 0)
    v = y_apply(y_apply(ModuleVector.basis_vector(ctx, (1, -1), (3, 2)), 1), 2)
    terms, text = dict(v.terms), repr(v)
    wbcat.clear_caches()
    assert v.terms == terms and list(v.terms) == list(terms) and repr(v) == text
    assert v == y_apply(y_apply(ModuleVector.basis_vector(ctx, (1, -1), (3, 2)), 1), 2)
    assert v == ModuleVector(ctx, (1, -1), terms)


def test_keys_round_trip_at_the_largest_sizes():
    # N = MAX_S8_N = 16 on MAX_STRANDS = 8 strands: slot codes up to 16^8 - 1
    N, k = cli.MAX_S8_N, cli.MAX_STRANDS
    ctx = GlContext.parabolic(8, N - 8, 0)
    A = (1, -1) * (k // 2)
    mus = [(), ((16, 1),), ((9, 8), (16, 1), (16, 1))]
    edges = [(1,) * k, (N,) * k, tuple(range(1, k + 1)), tuple(range(N, N - k, -1)), (N, 1) * (k // 2)]
    for slots in edges:
        for mu in mus:
            v = ModuleVector.basis_vector(ctx, A, slots, mu)
            assert v.terms == {(mu, slots): 1} and v.coeff(mu, slots) == 1
            assert ModuleVector(ctx, A, v.terms) == v
            # a crossing moves two digits and only those
            w = apply_token(("c", 3), ModuleVector.basis_vector(ctx, (1,) * k, slots, mu))
            assert w.terms == {(mu, slots[:2] + (slots[3], slots[2]) + slots[4:]): 1}
    # the cap-cup at the wall keeps the other digits, each at 16 values
    v = ModuleVector.basis_vector(ctx, A, (N, 3) + (7, 7) + (N,) * (k - 4))
    got = apply_token(("e", 3), v)
    assert list(got.terms) == [((), (N, 3, d, d) + (N,) * (k - 4)) for d in range(1, N + 1)]


def test_trivial_y_is_scalar():
    ctx = GlContext.trivial(3)
    for b in (1, 2, 3):
        v = ModuleVector.basis_vector(ctx, (1,), (b,))
        assert y_apply(v, 1) == v.scale(F(3, 2))


def test_parabolic_y_eigenvector_left_block():
    ctx = GlContext.parabolic(2, 2, 1)
    for i in (1, 2):
        v = ModuleVector.basis_vector(ctx, (1,), (i,))
        assert y_apply(v, 1) == v.scale(F(-1) + F(4, 2))


def test_generator_actions():
    ctx = GlContext.trivial(2)
    v = ModuleVector.basis_vector(ctx, (1, 1), (1, 2))
    assert apply_generator("s", 1, v) == ModuleVector.basis_vector(
        ctx, (1, 1), (2, 1)
    )
    v = ModuleVector.basis_vector(ctx, (1, -1), (1, 1))
    w = apply_generator("e", 1, v)
    assert w.coeff((), (1, 1)) == 1 and w.coeff((), (2, 2)) == 1
    w = apply_generator("eh", 1, v)
    assert w.A == (-1, 1) and w.coeff((), (2, 2)) == 1
    with pytest.raises(ValueError):
        apply_generator("s", 1, v)


def test_extract_omega_trivial():
    for N in (2, 3, 4):
        ctx = GlContext.trivial(N)
        for k in range(6):
            assert extract_omega(ctx, k) == N * F(N, 2) ** k


def test_extract_omega_parabolic_2_2_0():
    ctx = GlContext.parabolic(2, 2, 0)
    assert extract_omega(ctx, 0) == 4
    assert extract_omega(ctx, 1) == 8
    assert extract_omega(ctx, 2) == 16
    assert extract_omega(ctx, 3) == 32


def _exact_coeffs(v):
    # an int whenever integral, a Fraction only when not; never a float
    return all(
        type(c) is int or (type(c) is F and c.denominator != 1) for c in v.terms.values()
    )


def _split_casimir(ctx, v, j, k):
    # Omega_{jk} = sum_{a,b} E_ab at factor j after E_ba at factor k, from
    # the elementary action alone (not from the diagram identities)
    out = zero_vector(ctx, v.A)
    for a in range(1, ctx.N + 1):
        for b in range(1, ctx.N + 1):
            out = out + apply_E_at(a, b, apply_E_at(b, a, v, k), j)
    return out


def _draw_key(data, ctx, A):
    slots = data.draw(st.tuples(*[st.integers(1, ctx.N)] * len(A)))
    mu = ()
    if ctx.m:
        gens = st.sampled_from(u_minus_generators(ctx))
        mu = tuple(sorted(data.draw(st.lists(gens, max_size=2))))
    return mu, slots


@pytest.mark.parametrize(
    "ctx",
    [
        GlContext.trivial(2),
        GlContext.trivial(3),
        GlContext.parabolic(1, 2, 1),
        GlContext.parabolic(2, 2, 0),
    ],
    ids=lambda c: f"{'parabolic' if c.m else 'trivial'}{c.N}",
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_omega_pair_is_the_split_casimir(ctx, data):
    A = tuple(data.draw(st.lists(st.sampled_from((1, -1)), min_size=2, max_size=3)))
    mu, slots = _draw_key(data, ctx, A)
    v = ModuleVector.basis_vector(ctx, A, slots, mu)
    for k in range(1, len(A) + 1):
        for j in range(k):
            expected = _split_casimir(ctx, v, j, k)
            got = omega_pair(v, j, k)
            assert got == expected and omega_pair(v, k, j) == expected
            assert _exact_coeffs(got)
        assert _exact_coeffs(y_apply(v, k))


_COEFFS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@pytest.mark.parametrize(
    "ctx",
    [
        GlContext.trivial(2),
        GlContext.trivial(3),
        GlContext.parabolic(2, 2, 0),
        GlContext.parabolic(2, 1, 1),
    ],
    ids=lambda c: f"{'parabolic' if c.m else 'trivial'}{c.N}m{c.m}",
)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_y_apply_sums_its_casimirs_in_one_accumulator(ctx, data):
    # y_i = N/2 + sum_k Omega_{ki}, each Omega from omega_pair without an
    # accumulator and checked against the elementary action; trivial(3)
    # makes the shift the Fraction 3/2
    A = tuple(data.draw(st.lists(st.sampled_from((1, -1)), min_size=1, max_size=3)))

    def vector():
        terms = {_draw_key(data, ctx, A): data.draw(_COEFFS) for _ in range(3)}
        return ModuleVector(ctx, A, terms)

    v, w = vector(), vector()
    for i in range(1, len(A) + 1):
        expected = v.scale(F(ctx.N, 2))
        for k in range(i):
            omega = omega_pair(v, k, i)
            assert omega == _split_casimir(ctx, v, k, i)
            expected = expected + omega
            # adding into a nonempty accumulator of int keys is the vector sum
            acc = dict(w._terms)
            assert omega_pair(v, k, i, acc) is None
            assert glrep._vector(ctx, w.A, clean(acc)) == w + omega
        got = y_apply(v, i)
        assert got == expected
        assert _exact_coeffs(got)


@pytest.mark.parametrize(
    "ctx",
    [
        GlContext.trivial(2),
        GlContext.trivial(3),
        GlContext.parabolic(2, 2, 0),
        GlContext.parabolic(2, 1, 1),
    ],
    ids=lambda c: f"{'parabolic' if c.m else 'trivial'}{c.N}m{c.m}",
)
def test_y_apply_is_its_definition(ctx):
    # y_i v = (N/2) v + sum_{0 <= k < i} Omega_{ki} v, the right side from
    # separate omega_pair calls, on every basis vector of module degree <= 1
    # and on sums of three of them, for every dot of every 2- and 3-strand
    # object; trivial(3) makes the shift the Fraction 3/2
    for A in [A for k in (2, 3) for A in product((1, -1), repeat=k)]:
        basis = list(spanning_vectors(ctx, A, max_deg=1))
        sums = [
            basis[t] + basis[t + 1].scale(-2) + basis[t + 2].scale(F(3, 2))
            for t in range(0, len(basis) - 2, 3)
        ]
        for v in basis + sums:
            for i in range(1, len(A) + 1):
                expected = v.scale(F(ctx.N, 2))
                for k in range(i):
                    expected = expected + omega_pair(v, k, i)
                got = y_apply(v, i)
                assert got == expected, (A, i, v)
                assert _exact_coeffs(got)


@lru_cache(maxsize=None)
def _module_action_by_recursion(m, delta, a, b, mu):
    """Reference for glrep._module_action: E_ab commuted past one symbol
    per call, x_ij E = E x_ij - [E, x_ij], summed through lincomb."""
    if not mu:
        if a > m >= b:
            return ((1, ((a, b),)),)
        if a == b and a <= m:
            return ((-delta, ()),) if delta else ()
        return ()
    (i, j) = mu[0]
    rest = mu[1:]
    on_rest = _module_action_by_recursion(m, delta, a, b, rest)
    parts = [(1, {tuple(sorted(nu + ((i, j),))): c for c, nu in on_rest})]
    if b == i:
        parts.append((1, {nu: c for c, nu in _module_action_by_recursion(m, delta, a, j, rest)}))
    if j == a:
        parts.append((-1, {nu: c for c, nu in _module_action_by_recursion(m, delta, i, b, rest)}))
    return tuple((c, nu) for nu, c in lincomb(parts).items())


def test_module_action_matches_the_recursion():
    # every E_ab on every PBW monomial of degree <= 3: the same terms in the
    # same order, with int coefficients
    cases = 0
    for m, n, delta in [(2, 2, 0), (2, 2, 1), (3, 3, 0), (2, 1, 1), (3, 2, 2), (1, 3, 1)]:
        ctx = GlContext.parabolic(m, n, delta)
        for mu in glrep.module_monomials(ctx, 3):
            for a, b in product(range(1, ctx.N + 1), repeat=2):
                got = glrep._module_action(m, delta, a, b, mu)
                assert got == _module_action_by_recursion(m, delta, a, b, mu), (m, n, delta, a, b, mu)
                assert all(type(c) is int and c for c, _ in got)
                cases += 1
    assert cases == 11_550


def test_slot_pair_is_the_sum_over_a_b():
    # Omega on two slots summed over every (a, b) by the slot rule, in the
    # same order
    for N in range(1, 6):
        for up_j, up_k in product((True, False), repeat=2):
            for e, c in product(range(1, N + 1), repeat=2):
                expected = []
                for a, b in product(range(1, N + 1), repeat=2):
                    at_j, at_k = glrep._slot_E(up_j, a, b, e), glrep._slot_E(up_k, b, a, c)
                    if at_j and at_k:
                        expected.append((at_j[0], at_k[0], at_j[1] * at_k[1]))
                assert glrep._slot_pair(N, up_j, up_k, e, c) == tuple(expected), (N, up_j, up_k, e, c)


def test_resolve_coeff_is_the_fraction_value():
    # an int when integral, a Fraction otherwise, equal in value to
    # Fraction(coeff) or Fraction(omega(k)), on every 3-strand instance
    def omega(k):
        return F(k + 1, 2)  # 1/2, 1, 3/2, 2: integral and not

    seen = set()
    for A in product((1, -1), repeat=3):
        for _, (_, rhs) in all_instances(A):
            for coeff, _ in rhs:
                old = F(omega(coeff[1])) if isinstance(coeff, tuple) else F(coeff)
                got = resolve_coeff(coeff, omega)
                assert got == old
                assert type(got) is (int if old.denominator == 1 else F)
                seen.add(got)
    assert {F(1, 2), 1, -1} <= seen


@pytest.mark.parametrize(
    "ctx, A, max_deg, checks",
    [
        (GlContext.parabolic(2, 2, 0), (1, -1), 1, 6400),
        (GlContext.parabolic(2, 1, 1), (1, -1, 1), 1, 6561),
        (GlContext.trivial(3), (1, -1, 1), 0, 2187),
    ],
    ids=["parabolic220", "parabolic211", "trivial3"],
)
def test_action_commutes_with_gl_N(ctx, A, max_deg, checks):
    # mixed Schur-Weyl duality: every token and every dot is a gl_N-module map
    n = len(A)
    ops = [lambda v, i=i: y_apply(v, i) for i in range(1, n + 1)]
    for i in range(1, n):
        kinds = ("c",) if A[i - 1] == A[i] else ("c", "e", "eh")
        ops += [lambda v, tok=(kind, i): apply_token(tok, v) for kind in kinds]
    checked = 0
    for v in spanning_vectors(ctx, A, max_deg):
        for op in ops:
            image = op(v)
            for a in range(1, ctx.N + 1):
                for b in range(1, ctx.N + 1):
                    assert op(apply_E(a, b, v)) == apply_E(a, b, image)
                    checked += 1
    assert checked == checks


def test_boundary_values_are_fractions():
    values = [
        (extract_omega(GlContext.trivial(3), 2), F(27, 4)),
        (extract_omega(GlContext.parabolic(2, 1, 1), 3), F(5, 8)),
        (extract_omega(GlContext.parabolic(2, 2, 0), 3), F(32)),
    ]
    ctx = GlContext.trivial(3)
    v = ModuleVector.basis_vector(ctx, (1,), (2,))
    values += [
        (y_apply(v, 1).coeff((), (2,)), F(3, 2)),
        (v.coeff((), (2,)), F(1)),
        (v.coeff((), (1,)), F(0)),
    ]
    for poly, want in [
        (y1_minimal_poly(GlContext.parabolic(2, 1, 1), -1), (F(9, 4), F(-3), F(1))),
        (y1_minimal_poly(GlContext.parabolic(2, 1, 1), 1), (F(-1, 4), F(0), F(1))),
        (y1_minimal_poly(GlContext.parabolic(2, 2, 0), -1), (F(0), F(-2), F(1))),
    ]:
        assert len(poly) == len(want)
        values += list(zip(poly, want))
    for got, want in values:
        assert type(got) is F and got == want


def test_y1_minimal_poly_split():
    assert y1_minimal_poly(GlContext.parabolic(3, 2, 1), 1) == (
        F(-3, 4),
        F(-1),
        F(1),
    )
    assert y1_minimal_poly(GlContext.parabolic(2, 2, 0), -1) == (0, -2, 1)
    # on the trivial module y_1 is the scalar N/2 on either orientation
    for N in (1, 2, 3):
        for orientation in (1, -1):
            assert y1_minimal_poly(GlContext.trivial(N), orientation) == (F(-N, 2), 1)


def test_basis_vector_takes_only_symbols_of_u_minus():
    # x_ij with m < i <= N and 1 <= j <= m; the trivial module has none
    ctx = GlContext.parabolic(2, 2, 0)
    for mu in ([(1, 2)], [(9, 1)], [(3, 1), (2, 1)]):
        with pytest.raises(ValueError, match="not a symbol of u\\^-"):
            ModuleVector.basis_vector(ctx, (1,), (1,), mu)
    v = ModuleVector.basis_vector(ctx, (1,), (1,), [(3, 1)])
    assert v.coeff([(3, 1)], (1,)) == 1
    with pytest.raises(ValueError, match="not a symbol of u\\^-"):
        ModuleVector.basis_vector(GlContext.trivial(3), (1,), (1,), [(2, 1)])


def test_y1_minimal_poly_degenerate_square():
    # delta = m: the quadratic degenerates to a square with nonzero nilpart
    assert y1_minimal_poly(GlContext.parabolic(2, 2, 2), 1) == (0, 0, 1)


def test_represent_identity_and_dot():
    ctx = GlContext.trivial(2)
    A = (1, -1)
    v = ModuleVector.basis_vector(ctx, A, (1, 2))
    assert represent(DecoratedElement.unit(A), v) == v
    y2 = generator("y", A, 2)
    assert represent(y2, v) == y_apply(v, 2)


def test_represent_monomial_with_top_dots():
    ctx = GlContext.trivial(2)
    A = (1, -1)
    m = Monomial(token_diagram(("e", 1), A), (0, 1), (1, 0))
    v = ModuleVector.basis_vector(ctx, A, (1, 1))
    el = DecoratedElement.from_monomial(m)
    byhand = y_apply(apply_token(("e", 1), y_apply(v, 2)), 1)
    assert represent(el, v) == byhand


def test_relations_hold_in_representation_small():
    ctx = GlContext.trivial(2)
    A = (1, -1)
    vecs = list(spanning_vectors(ctx, A))
    for rid, (lhs, rhs) in all_instances(A):
        for v in vecs:
            left = apply_word(lhs, v)
            right = None
            for coeff, word in rhs:
                c = resolve_coeff(coeff, lambda k: ctx.N * F(ctx.N, 2) ** k)
                part = apply_word(word, v).scale(c)
                right = part if right is None else right + part
            assert left == right, f"{rid}: {lhs} vs {rhs} on {v!r}"


def test_verify_section8_trivial():
    report = verify_section8(GlContext.trivial(2), (1, -1))
    assert report
    for check, res in report.items():
        assert res["failures"] == [], check
    assert sum(res["instances"] for res in report.values()) > 0
    # a wider object exercises the checks that need far/equal positions
    report3 = verify_section8(GlContext.trivial(2), (1, 1, -1))
    for check, res in report3.items():
        assert res["failures"] == [], check
        assert res["instances"] > 0 or check == "casimir_disjoint_commute"


def test_verify_section8_parabolic():
    report = verify_section8(GlContext.parabolic(2, 2, 0), (1, -1), max_deg=1)
    for check, res in report.items():
        assert res["failures"] == [], check


def _omega_module_doubled(omega):
    def fault(v, j, k, acc=None):
        out = omega(v, j, k, acc)
        return out.scale(2) if acc is None and 0 in (j, k) else out

    return fault


def _eh_flipped(apply):
    def fault(tok, v):
        out = apply(tok, v)
        return out.scale(-1) if tok[0] == "eh" else out

    return fault


def _c1_tripled(apply):
    def fault(tok, v):
        out = apply(tok, v)
        if tok != ("c", 1):
            return out
        return ModuleVector(out.ctx, out.A, {k: 3 * c if k[1][0] == 1 else c for k, c in out.terms.items()})

    return fault


@pytest.mark.parametrize(
    "target, fault, digest, failures",
    [
        (None, None, "ae9697d9efb0e961", 0),
        ("omega_pair", _omega_module_doubled, "8b4a38c1c2848653", 232),
        ("apply_token", _eh_flipped, "8944702190c4dc9a", 176),
        ("apply_token", _c1_tripled, "5a78bd2c378d01ed", 461),
    ],
    ids=["none", "omega-module-doubled", "eh-flipped", "c1-tripled"],
)
def test_verify_section8_report_is_pinned(monkeypatch, target, fault, digest, failures):
    # whole reports, failure labels and order included, with a planted fault
    # in Omega between the module and a slot, in eh_i, or in the crossing s_1
    if target:
        monkeypatch.setattr(glrep, target, fault(getattr(glrep, target)))
    reports = [
        verify_section8(GlContext.trivial(2), (1, 1, -1)),
        verify_section8(GlContext.parabolic(1, 1, 0), (1, -1, 1)),
        verify_section8(GlContext.parabolic(2, 2, 0), (1, -1)),
    ]
    assert sum(len(res["failures"]) for rep in reports for res in rep.values()) == failures
    assert hashlib.sha256(repr(reports).encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("A", [(1, -1), (1, 1, -1)])
def test_omega_token_is_omega_pair(A):
    ctx = GlContext.parabolic(2, 1, 1)
    for v in spanning_vectors(ctx, A, max_deg=1):
        for j in range(len(A) + 1):
            for k in range(1, len(A) + 1):
                if j != k:
                    assert apply_token(("o", j, k), v) == omega_pair(v, j, k)
    v = ModuleVector.basis_vector(ctx, A, (1,) * len(A))
    for tok in (("o", 1, 1), ("o", 1, 0)):
        with pytest.raises(ValueError):
            apply_token(tok, v)


def _oracle_words(A):
    """Every word of every defining relation and of every IDENTITIES entry
    (the latter bring the ("o", j, k) tokens), once each, sorted."""
    words = set()
    for _, (lhs, rhs) in all_instances(A):
        words.update(tuple(w) for w in [lhs] + [w for _, w in rhs])
    for check in glrep.IDENTITIES:
        for _, lhs, rhs in identity_instances(check, A):
            words.update(tuple(w) for w in [lhs] + [w for _, w in rhs])
    return sorted(words)


def _word_ops(ctx, A):
    return [lambda v, word=word: apply_word(word, v) for word in _oracle_words(A)]


def _E_ops(ctx, A):
    """Every E_ab at each factor (apply_E_at), then on the whole product."""
    return [
        (lambda v, a=a, b=b, pos=pos: apply_E(a, b, v) if pos is None else apply_E_at(a, b, v, pos))
        for a in range(1, ctx.N + 1)
        for b in range(1, ctx.N + 1)
        for pos in (*range(len(A) + 1), None)
    ]


@pytest.mark.parametrize(
    "ctx, A, max_deg, ops, nops, digest",
    [
        (GlContext.parabolic(2, 2, 0), (1, 1, -1), 2, _word_ops, 106, "8ecbd28a125abe92"),
        (GlContext.parabolic(2, 2, 0), (-1, -1, -1), 2, _word_ops, 67, "b462044f2e4870b6"),
        (GlContext.parabolic(2, 1, 1), (1, -1, 1), 2, _word_ops, 132, "b6c86eb30b060437"),
        (GlContext.trivial(3), (1, 1, -1), 2, _word_ops, 106, "62739b7a9da91f7c"),
        # slot values of two decimal digits, a base of 10 for the keys
        (GlContext.parabolic(5, 5, 0), (1, -1), 1, _word_ops, 40, "6c6455d36186ef69"),
        (GlContext.parabolic(2, 2, 1), (1, 1, -1), 2, _E_ops, 80, "a83a3189fd7951d3"),
    ],
    ids=[
        "p220-(1,1,-1)", "p220-(-1,-1,-1)", "p211-(1,-1,1)", "trivial3-(1,1,-1)",
        "p550-(1,-1)", "p221-(1,1,-1)-E_ab",
    ],
)
def test_oracle_images_are_pinned(ctx, A, max_deg, ops, nops, digest):
    # the image of every relation and identity word (or of every E_ab) on
    # every spanning vector of degree <= max_deg, terms in sorted order
    # with their exact coefficient types; the first four digests were
    # recorded before the slot tuples came from tables and all six before
    # the keys became ints, so the action is unchanged term for term
    ops = ops(ctx, A)
    assert len(ops) == nops
    h = hashlib.sha256()
    for v in spanning_vectors(ctx, A, max_deg=max_deg):
        for op in ops:
            h.update(repr(sorted(op(v).terms.items())).encode())
    assert h.hexdigest()[:16] == digest


# identities of the table that restate defining relations
RESTATED = {
    "dots_commute": ["y_comm"],
    "crossing_commutes_far_dots": ["cross_y_far"],
    "dot_crossing_commutator": ["dot_cross"],
    "hat_dot_crossing_commutator": ["dot_cross_hat"],
    "contraction_kills_dot_sum": ["cap_kills_sum_above", "cap_kills_sum_below"],
}


def test_restated_identities_are_their_relations():
    def key(lhs, rhs):
        return tuple(lhs), tuple((F(c), tuple(w)) for c, w in rhs)

    for k in range(1, 6):
        for A in product((1, -1), repeat=k):
            for check, rids in RESTATED.items():
                table = sorted(key(lhs, rhs) for _, lhs, rhs in identity_instances(check, A))
                registry = sorted(key(lhs, rhs) for rid in rids for lhs, rhs in instances(rid, A))
                assert table == registry, (check, A)


def test_faithfulness_rank_single_strand():
    assert faithfulness_rank((1,), Params(2, 2, 0)) == 2


def _rank_on_every_input(A, p, act=represent):
    """Reference: one row per regular monomial over every input beta, with
    the (beta, key) tuples themselves as column keys."""
    ctx = GlContext.parabolic(p.m, p.n, p.delta)
    rows = []
    for mono in cyclotomic_monomials(A):
        el = DecoratedElement.from_monomial(mono)
        row = {}
        for beta in product(range(1, ctx.N + 1), repeat=len(A)):
            w = act(el, ModuleVector.basis_vector(ctx, A, beta))
            for key, c in w.terms.items():
                row[(beta, key)] = c
        rows.append(row)
    return sparse_rank(rows)


@pytest.mark.parametrize(
    "A, mnd, rank",
    [
        ((1, -1, -1), (3, 3, 0), 48),
        # unfaithful: the rank is below the number of rows, so every
        # input is ranked, not only the first of each orbit
        ((1, -1), (1, 1, 0), 6),
        ((1, 1, -1), (1, 1, 0), 20),
        ((1, -1, -1), (1, 1, 0), 20),
        ((1, -1), (2, 1, 0), 7),
        ((1, 1, -1), (2, 1, 0), 33),
        ((1, -1, -1), (2, 1, 0), 33),
        ((1, 1, -1), (2, 2, 0), 46),
    ],
)
def test_faithfulness_rank_matches_every_input_reference(A, mnd, rank):
    p = Params(*mnd)
    assert faithfulness_rank(A, p) == _rank_on_every_input(A, p) == rank
    assert (rank == len(cyclotomic_monomials(A))) == (mnd == (3, 3, 0))


def test_faithfulness_rank_does_not_rely_on_levi_symmetry(monkeypatch):
    # a map that kills every first-of-orbit input commutes with no Levi
    # permutation; the rank must then come from the other inputs. The
    # prefix walk builds the rows and represent checks them on the first
    # input, so both are skewed alike.
    A, p = (1, -1), Params(2, 1, 0)
    firsts = set(levi_inputs(2, 3, 2)[0])

    def killed(v):
        ((_, slots),) = v.terms
        return slots in firsts

    def skewed(el, v):
        return zero_vector(v.ctx, el.top) if killed(v) else represent(el, v)

    def skewed_walk(trie, v):
        for i, w in apply_trie(trie, v):
            yield i, zero_vector(v.ctx, w.A) if killed(v) else w

    monkeypatch.setattr(glrep, "represent", skewed)
    monkeypatch.setattr(glrep, "apply_trie", skewed_walk)
    rank = faithfulness_rank(A, p)
    assert rank == _rank_on_every_input(A, p, skewed) > 0
    assert rank < len(cyclotomic_monomials(A))  # so the second pass ran


def test_faithfulness_rank_raises_when_represent_disagrees(monkeypatch):
    # a planted fault in the one-element path on the first input: the rows
    # come from the prefix walk, which the check compares against it
    A, p = (1, -1, -1), Params(3, 3, 0)
    last = cyclotomic_monomials(A)[-1]

    def faulty(el, v):
        w = represent(el, v)
        return w.scale(2) if last in el.terms else w

    monkeypatch.setattr(glrep, "represent", faulty)
    with pytest.raises(ArithmeticError, match="represent"):
        faithfulness_rank(A, p)


def _rank_two_pass(A, p):
    """Reference: the first-of-orbit inputs in lexicographic order, ranked
    once after all of them, then every input ranked once."""
    ctx = GlContext.parabolic(p.m, p.n, p.delta)
    monos = cyclotomic_monomials(A)
    trie = word_trie([word_for_monomial(mono) for mono in monos])
    rows = [{} for _ in monos]
    cols = {}
    for inputs in levi_inputs(ctx.m, ctx.N, len(A)):
        for beta in inputs:
            for i, w in apply_trie(trie, ModuleVector.basis_vector(ctx, A, beta)):
                for key, c in w.terms.items():
                    rows[i][cols.setdefault((beta, key), len(cols))] = c
        rank = sparse_rank(rows)
        if rank == len(rows):
            break
    return rank


# the rank of every object on 1, 2 and 3 strands at each triple, by strand
# count; the two-pass reference builds its rows from the same tables, so
# the values are pinned as well
_RANKS = {
    (3, 3, 0): (2, 8, 48),
    (3, 3, 1): (2, 8, 48),
    (2, 1, 0): (2, 7, 33),
    (2, 3, 1): (2, 8, 47),
    (4, 1, 0): (2, 7, 34),
}


@pytest.mark.parametrize("mnd", list(_RANKS))
def test_faithfulness_rank_matches_the_two_pass_reference(mnd):
    p = Params(*mnd)
    for k, rank in zip((1, 2, 3), _RANKS[mnd]):
        for A in product((1, -1), repeat=k):
            assert faithfulness_rank(A, p) == _rank_two_pass(A, p) == rank, (A, mnd)


@pytest.mark.parametrize(
    "A, mnd, rank, inputs, ranked_after",
    [
        # full rank on the two inputs with three far slots and two more;
        # after inputs 1 and 2 some rows are still empty, so no rank is taken
        ((1, -1, -1), (3, 3, 0), 48, [(4, 1, 1), (4, 1, 2), (1, 1, 1), (1, 1, 2)], [4]),
        # m < k, where no full rank is expected: the 20 first-of-orbit
        # inputs in lexicographic order, ranked once, then all 64 once
        ((1, 1, -1), (2, 2, 0), 46, [(1, 1, 1), (1, 1, 2), (1, 1, 3)], [20, 64]),
    ],
)
def test_faithfulness_rank_stops_at_the_first_full_rank(monkeypatch, A, mnd, rank, inputs, ranked_after):
    seen, at, filled = [], [], []

    def walk(trie, v):
        ((_, slots),) = v.terms
        seen.append(slots)
        filled.append(set())
        for i, w in apply_trie(trie, v):
            if w.terms:
                filled[-1].add(i)
            yield i, w

    def rank_of(rows):
        at.append(len(seen))
        return sparse_rank(rows)

    monkeypatch.setattr(glrep, "apply_trie", walk)
    monkeypatch.setattr(glrep, "sparse_rank", rank_of)
    assert faithfulness_rank(A, Params(*mnd)) == rank
    assert seen[: len(inputs)] == inputs
    assert at == ranked_after
    assert len(seen) == ranked_after[-1] and len(set(seen)) == len(seen)
    # where m, n >= k a rank is due after inputs 1, 2, 4, ...; one is
    # skipped only while some row is empty
    nrows = len(cyclotomic_monomials(A))
    if min(mnd[:2]) >= len(A):
        for count in (1 << e for e in range(ranked_after[-1].bit_length())):
            if count not in at:
                assert len(set().union(*filled[:count])) < nrows, count


def test_word_trie_shares_prefixes():
    words = [[], [("c", 1)], [("c", 1), ("y", 1)], [("y", 2)], [("c", 1)]]
    assert word_trie(words) == (
        [0],
        {
            ("c", 1): ([1, 4], {("y", 1): ([2], {})}),
            ("y", 2): ([3], {}),
        },
    )


@pytest.mark.parametrize(
    "A, mnd, betas",
    [
        ((1, -1), (2, 2, 0), [(1, 1), (1, 3), (4, 2)]),
        ((1, 1, -1), (3, 3, 0), [(1, 1, 1), (1, 4, 1), (6, 2, 5)]),
        ((1, -1, -1, 1), (2, 2, 1), [(1, 1, 1, 1), (3, 1, 1, 3)]),
        ((1, 1, -1, -1), (4, 4, 0), [(1, 2, 2, 1)]),
    ],
)
def test_apply_trie_matches_apply_word(A, mnd, betas):
    ctx = GlContext.parabolic(*mnd)
    monos = cyclotomic_monomials(A)
    words = [word_for_monomial(m) for m in monos]
    # the identity's empty word, and words that are prefixes of others
    assert words.count([]) == 1
    assert any(w and w != u and u[: len(w)] == w for w in words for u in words)
    trie = word_trie(words)
    for beta in betas:
        v = ModuleVector.basis_vector(ctx, A, beta)
        got = list(apply_trie(trie, v))
        assert sorted(i for i, _ in got) == list(range(len(words)))
        for i, w in got:
            assert w == apply_word(words[i], v), (beta, words[i])


def _levi_orbit_count(m, N, k):
    """Orbits of S_m x S_n on {1..N}^k, by closing each unseen input under
    every permutation of the values."""
    group = [
        dict(zip(range(1, N + 1), left + right))
        for left in permutations(range(1, m + 1))
        for right in permutations(range(m + 1, N + 1))
    ]
    seen, orbits = set(), 0
    for beta in product(range(1, N + 1), repeat=k):
        if beta not in seen:
            orbits += 1
            seen.update(tuple(g[b] for b in beta) for g in group)
    return orbits


@pytest.mark.parametrize("m, n, k, count", [(3, 3, 2, 6), (3, 3, 3, 22), (4, 4, 4, 94)])
def test_levi_inputs_pick_one_input_per_orbit(m, n, k, count):
    N = m + n
    firsts, rest = levi_inputs(m, N, k)
    every = list(product(range(1, N + 1), repeat=k))
    assert sorted(firsts + rest) == every  # every input once, no repeats
    assert len(firsts) == _levi_orbit_count(m, N, k) == count

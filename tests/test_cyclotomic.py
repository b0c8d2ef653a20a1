import random
import warnings
from fractions import Fraction as F

import pytest

from wbcat.affine import OmegaSpec, multiply
from wbcat.cyclotomic import (
    CycloParams,
    basis,
    center_basis,
    cyclo_reduce,
    endomorphism_generators,
    is_central,
    make_params,
    poly_element,
    q_cancellation,
    structure_constants,
    w1_closed_form,
)
from wbcat.diagrams import (
    DecoratedElement,
    Monomial,
    enumerate_diagrams,
    generator,
    identity_monomial,
    orseq,
)
from wbcat.exact import MultiPoly, poly_parse, sparse_rank


def test_params_values():
    p = make_params(2, 2, 0)
    assert (p.beta1, p.beta2, p.beta1s, p.beta2s) == (2, 0, 2, 0)
    assert p.omega(0) == 4 and p.omega(1) == 8
    p = make_params(1, 1, 0)
    assert all(p.omega(k) == 2 for k in range(8))
    p = make_params(3, 2, -1)
    assert p.beta1 == F(7, 2) and p.beta2 == F(-1, 2)
    assert p.beta1s == F(5, 2) and p.beta2s == F(-1, 2)


def test_params_degenerate_rejected():
    with pytest.raises(ValueError, match="degenerate eigenvalues"):
        make_params(2, 2, 2)
    with pytest.raises(ValueError, match="degenerate eigenvalues"):
        make_params(3, 2, 2)
    with pytest.raises(ValueError):
        make_params(0, 2, 1)


def test_params_json_round_trip():
    p = make_params(3, 2, -1)
    assert CycloParams.from_json(p.to_json()) == p


def test_params_and_omega_are_hashed_once(monkeypatch):
    # both are memo keys on the rewriting path; a lookup must not rehash
    # their Fraction fields
    pairs = [
        (make_params(3, 2, -1), CycloParams.from_json({"m": 3, "n": 2, "delta": -1})),
        (OmegaSpec.from_list([F(3, 2), 1]), OmegaSpec.from_json({"kind": "list", "values": ["3/2", 1]})),
        (OmegaSpec.from_mn_delta(3, 3, 0), make_params(3, 3, 0).omega),
    ]
    pairs += [
        (make_params(3, 3, 1), make_params(3, 3, 0)),
        (OmegaSpec.from_list([1, 2]), OmegaSpec.from_list([1])),
    ]
    calls = []
    monkeypatch.setattr(F, "__hash__", lambda self: calls.append(self) or 0)
    for x, y in pairs[:3]:
        assert x is not y and x == y and hash(x) == hash(y)
    for x, y in pairs[3:]:
        assert x != y and {x: 1}.get(y) is None
    assert calls == []


def test_w1_closed_form_equals_recursion():
    for (m, n) in ((2, 2), (3, 2), (1, 1), (3, 3)):
        for delta in (-1, 0, 1):
            if delta in (m, n):
                continue
            p = make_params(m, n, delta)
            for k in range(13):
                assert w1_closed_form(p, k) == p.omega(k), (m, n, delta, k)


def test_quadratic_reduction_both_orientations():
    p = make_params(2, 2, 0)
    A = orseq((1, -1))
    y1 = generator("y", A, 1)
    assert cyclo_reduce(multiply(y1, y1, p.omega), p) == y1.scale(
        p.beta1 + p.beta2
    ) - DecoratedElement.unit(A).scale(p.beta1 * p.beta2)
    Am = orseq((-1, 1))
    y1m = generator("y", Am, 1)
    assert cyclo_reduce(multiply(y1m, y1m, p.omega), p) == y1m.scale(
        p.beta1s + p.beta2s
    ) - DecoratedElement.unit(Am).scale(p.beta1s * p.beta2s)


def test_reduce_fixpoint_on_basis():
    p = make_params(3, 3, 1)
    A = orseq((1, -1))
    for m in basis(A, p):
        el = DecoratedElement.from_monomial(m)
        assert cyclo_reduce(el, p) == el


def test_reduce_clears_all_stacks():
    p = make_params(3, 3, 0)
    A = orseq((1, -1, 1))
    y2 = generator("y", A, 2)
    el = multiply(y2, multiply(y2, multiply(y2, generator("e", A, 1), p.omega), p.omega), p.omega)
    red = cyclo_reduce(el, p)
    for m in red.terms:
        assert all(g <= 1 for g in m.gamma) and all(e <= 1 for e in m.eta)


def random_monomial(rng, A, B, maxdot=3):
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


def test_reduce_is_module_map_and_idempotent():
    p = make_params(3, 3, 1)
    A = orseq((1, -1))
    rng = random.Random(2)
    for trial in range(25):
        x = DecoratedElement.from_monomial(random_monomial(rng, A, A))
        y = DecoratedElement.from_monomial(random_monomial(rng, A, A))
        lhs = cyclo_reduce(multiply(x, y, p.omega), p)
        rhs = cyclo_reduce(
            multiply(cyclo_reduce(x, p), cyclo_reduce(y, p), p.omega), p
        )
        assert lhs == rhs
        assert cyclo_reduce(lhs, p) == lhs


def test_basis_sizes_and_warning():
    p = make_params(4, 4, 1)
    assert len(basis((1,), p)) == 2
    assert len(basis((1, -1), p)) == 8
    assert len(basis((1, 1, -1), p)) == 48
    small = make_params(1, 1, 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = basis((1, -1), small)
        assert len(out) == 8 and len(caught) == 1


def test_structure_constants_unital_associative():
    p = make_params(3, 3, 1)
    A = orseq((1, -1))
    sc = structure_constants(A, p)
    bas = basis(A, p)
    d = len(bas)
    unit = bas.index(identity_monomial(A))
    for j in range(d):
        for k in range(d):
            want = F(1) if j == k else F(0)
            assert sc.get((unit, j, k), F(0)) == want
            assert sc.get((j, unit, k), F(0)) == want
    by_ij = {}
    for (i, j, k), v in sc.items():
        by_ij.setdefault((i, j), {})[k] = v
    for i in range(d):
        for j in range(d):
            for l in range(d):
                lhs = {}
                for k, v in by_ij.get((i, j), {}).items():
                    for mm, w in by_ij.get((k, l), {}).items():
                        lhs[mm] = lhs.get(mm, F(0)) + v * w
                rhs = {}
                for k, v in by_ij.get((j, l), {}).items():
                    for mm, w in by_ij.get((i, k), {}).items():
                        rhs[mm] = rhs.get(mm, F(0)) + v * w
                assert {k: v for k, v in lhs.items() if v} == {
                    k: v for k, v in rhs.items() if v
                }, (i, j, l)


def test_structure_constants_e1_row():
    p = make_params(2, 2, 0)
    A = orseq((1, -1))
    bas = basis(A, p)
    e1_mono = next(iter(generator("e", A, 1).terms))
    i = bas.index(e1_mono)
    sc = structure_constants(A, p)
    assert sc[(i, i, i)] == p.m + p.n


def test_q_cancellation_examples():
    assert q_cancellation(poly_parse("y1+y2", 2), 1, 2)
    assert not q_cancellation(poly_parse("y1*y2", 2), 1, 2)
    assert q_cancellation(poly_parse("y1^2+y1*y2", 2), 1, 2)
    assert q_cancellation(MultiPoly.const(2, 5), 1, 2)
    with pytest.raises(ValueError):
        q_cancellation(poly_parse("y1", 1), 1, 1)


def test_is_central_examples():
    p = make_params(2, 2, 0)
    A = orseq((1, -1))
    assert is_central(MultiPoly.const(2, 1), A, p)
    assert is_central(poly_parse("y1+y2", 2), A, p)
    assert not is_central(poly_parse("y1", 2), A, p)


def test_center_basis_examples():
    p = make_params(2, 2, 0)
    got = center_basis((1, -1), p, 1)
    assert len(got) == 2
    # span contains 1 and y1 + y2
    targets = [MultiPoly.const(2, 1), poly_parse("y1+y2", 2)]
    exps = sorted({e for q in got + targets for e in q.coeffs})
    rows = [dict(enumerate(q.coeffs.get(e, F(0)) for e in exps)) for q in got]
    rank0 = sparse_rank(rows)
    for tgt in targets:
        aug = rows + [dict(enumerate(tgt.coeffs.get(e, F(0)) for e in exps))]
        assert sparse_rank(aug) == rank0


def test_center_basis_pure_row_case():
    p = make_params(3, 3, 1)
    got = center_basis((1,), p, 3)
    assert len(got) == 4  # 1, y1, y1^2, y1^3


def test_central_set_equals_q_cancellation_set():
    # degree <= 3 on (1,-1): the polynomials commuting with End-generators
    # (filtered commutators) are exactly the Q-cancellation polynomials,
    # as linear subspaces of the 10-dim coefficient space
    from wbcat.affine import multiply as mul
    from wbcat.cyclotomic import _exponents_up_to
    from wbcat.exact import nullspace

    p = make_params(2, 2, 0)
    A = orseq((1, -1))
    exps = _exponents_up_to(2, 3)
    gens = endomorphism_generators(A)
    comms, keys = [], set()
    for e in exps:
        el = poly_element(MultiPoly.monomial(e, 1), A)
        blocks = []
        for g in gens:
            c = mul(el, g, p.omega) - mul(g, el, p.omega)
            blocks.append(dict(c.terms))
            keys.update(c.terms)
        comms.append(blocks)
    keys = sorted(keys, key=lambda m: m.sort_key())
    rows = [
        {ci: comms[ci][gi].get(k, F(0)) for ci in range(len(exps))}
        for gi in range(len(gens))
        for k in keys
    ]
    central = nullspace(rows, len(exps))
    qc_rows = [
        {ci: F((-1) ** e[1]) for ci, e in enumerate(exps) if sum(e) == k}
        for k in (1, 2, 3)
    ]
    qcspace = nullspace(qc_rows, len(exps))
    assert len(central) == len(qcspace) == 7
    assert sparse_rank(central + qcspace) == 7


def test_kernel_polynomials_not_central_at_poly_level():
    # the defining quadratic reduces to zero in the quotient (trivially
    # central as an image) but is not a central polynomial and fails
    # Q-cancellation; is_central works at the polynomial level
    p = make_params(2, 2, 0)
    A = orseq((1, -1))
    Q = (
        MultiPoly.monomial((2, 0), 1)
        - MultiPoly.var(2, 1).scale(p.beta1 + p.beta2)
        + MultiPoly.const(2, p.beta1 * p.beta2)
    )
    assert cyclo_reduce(poly_element(Q, A), p).is_zero()
    assert not is_central(Q, A, p)
    assert not q_cancellation(Q, 1, 2)


def test_poly_element_round_trip():
    p = make_params(2, 2, 0)
    A = orseq((1, -1))
    el = poly_element(poly_parse("y1*y2+3", 2), A)
    assert el.degree() == 2 and len(el.terms) == 2
    gens = endomorphism_generators(A)
    assert len(gens) == 3  # y1, y2, e1

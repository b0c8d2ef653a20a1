import ast
import hashlib
import importlib
from itertools import product
import json
import pkgutil
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import wbcat
from wbcat import affine, cli
from wbcat.affine import OmegaSpec, multiply
from wbcat.cli import main
from wbcat.cyclotomic import make_params
from wbcat.diagrams import element_to_json, generator


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_example(capsys):
    code, out, _ = run_main(capsys, "dim", "--seq", "1,-1", "--m", "2", "--n", "2", "--delta", "0")
    assert code == 0 and out == '{"dim":8}\n'


def test_dim_outside_basis_hypotheses_is_not_a_dimension(capsys):
    # m = n = 1 < r + t = 2: the 8 regular monomials only span, and the
    # representation has rank 6
    args = ("--seq", "1,-1", "--m", "1", "--n", "1", "--delta", "0")
    code, out, _ = run_main(capsys, "dim", *args)
    assert code == 0 and json.loads(out) == {"certified": False, "spanning": 8}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the size is counted: no basis, no warning
        code, out, _ = run_main(capsys, "faithfulness", *args)
    assert code == 0 and json.loads(out) == {"certified": False, "rank": 6, "spanning": 8}


def test_struct_consts_outside_basis_hypotheses_is_not_a_dimension(capsys):
    args = ("--seq", "1,-1", "--m", "1", "--n", "1", "--delta", "0")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # stdout says it, and only stdout
        code, out, err = run_main(capsys, "struct-consts", *args)
    got = json.loads(out)
    assert (code, err) == (0, "") and "dim" not in got
    assert (got["certified"], got["spanning"]) == (False, 8) and got["triples"]


def _dotted(seq, gamma, eta):
    """The identity on the object seq with dots gamma below and eta above."""
    arcs = [[f"b{i}", f"t{i}"] for i in range(1, len(seq) + 1)]
    mono = {"arcs": arcs, "bottom": seq, "top": seq, "gamma": gamma, "eta": eta}
    return json.dumps({"bottom": seq, "top": seq, "terms": [{"coeff": "1", "monomial": mono}]})


@pytest.mark.parametrize(
    "argv",
    [
        ("omega", "--k", "100000000", "--m", "1", "--n", "1", "--delta", "0"),
        ("omega", "--k", "-1", "--m", "1", "--n", "1", "--delta", "0"),
        ("wseries", "--seq", "1,1,-1", "--i", "2", "--k", "65", "--m", "2", "--n", "2", "--delta", "0"),
        ("dim", "--seq", ",".join(["1"] * 9), "--m", "9", "--n", "9", "--delta", "0"),
        ("qcancel", "--poly", "y4000000", "--pair", "1,2"),
        ("center-test", "--poly", "y9", "--seq", "1,-1", "--m", "2", "--n", "2", "--delta", "0"),
        ("qcancel", "--poly", "y1", "--pair", "1,100000000"),
        ("qcancel", "--poly", "y1", "--pair", "0,1"),
        ("qcancel", "--poly", "y1^3000000", "--pair", "1,2"),
        ("qcancel", "--poly", "2^100000000", "--pair", "1,2"),
        ("qcancel", "--poly", "(y1+y2)^2*(y1-y2)^3", "--pair", "1,2"),
        ("center-basis", "--seq", "1,-1,1", "--max-deg", "40", "--m", "3", "--n", "3", "--delta", "0"),
        ("center-basis", "--seq", "1,-1", "--max-deg", "-1", "--m", "2", "--n", "2", "--delta", "0"),
        ("faithfulness", "--seq", "1,-1,1", "--m", "60", "--n", "60", "--delta", "0"),
        ("verify-s8", "--seq", "1,-1", "--m", "2", "--n", "2", "--delta", "0", "--max-deg", "12"),
        ("faithfulness", "--seq", "1,1,-1,-1", "--m", "7", "--n", "1", "--delta", "0"),
        ("faithfulness", "--seq", "1,1,-1,-1", "--m", "3", "--n", "3", "--delta", "0"),
        ("faithfulness", "--seq", "1,1,1,-1,-1", "--m", "1", "--n", "1", "--delta", "0"),
        ("faithfulness", "--seq", "1,1,1,1,-1,-1,-1,-1", "--m", "4", "--n", "4", "--delta", "0"),
        ("qcancel", "--poly", "+".join(["y1"] * 667) + " ", "--pair", "1,2"),
        ("center-test", "--poly", "1" + " " * 2000, "--seq", "1,-1", "--m", "2", "--n", "2", "--delta", "0"),
        ("verify-s8", "--seq", "1,-1", "--N", "0"),
        ("verify-s8", "--seq", "1,-1", "--N", "-3"),
        ("verify-s8", "--seq", "1,-1", "--N", "17"),
        ("verify-s8", "--seq", "1,-1,1", "--m", "3", "--n", "3", "--delta", "0"),
        ("verify-s8", "--seq", "1,-1,1,-1,1,-1,1", "--m", "1", "--n", "1", "--delta", "0"),
        ("verify-s8", "--seq", "1,-1", "--m", "2"),
        ("verify-s8", "--seq", "1,-1", "--N", "2", "--m", "1", "--n", "1", "--delta", "0"),
        ("wseries", "--seq", "1,-1", "--i", "1", "--k", "1", "--m", "2"),
        ("young-enum", "--seq", "1,1,1,-1,-1,-1", "--m", "1000", "--n", "1000", "--delta", "0"),
        ("young-enum", "--seq", "1,-1", "--m", "0", "--n", "2", "--delta", "0"),
        ("spectrum", "--seq", "1,-1", "--m", "2", "--n", "33", "--delta", "0"),
        ("spectrum", "--seq", "1,-1", "--m", "2", "--n", "-1", "--delta", "0"),
        ("reduce", "--element", _dotted((1,) * 9, [0] * 9, [0] * 9), "--m", "2", "--n", "2", "--delta", "0"),
        ("reduce", "--element", _dotted((1, -1), [401, 0], [0, 400]), "--m", "2", "--n", "2", "--delta", "0"),
        ("reduce", "--element", _dotted((1, -1) * 2, [0, 0, 0, 11], [0] * 4), "--affine", "--m", "2", "--n", "2", "--delta", "0"),
        ("reduce", "--element", _dotted((1, 1), [0, 0], [0, 101]), "--m", "2", "--n", "2", "--delta", "0"),
        ("multiply", "--x", _dotted((1, -1), [400, 0], [0, 0]), "--y", _dotted((1, -1), [0, 0], [0, 401]),
         "--m", "2", "--n", "2", "--delta", "0"),
    ],
    ids=["omega-k", "omega-negative-k", "wseries-k", "seq-length", "poly-variable",
         "center-test-variable", "pair", "pair-zero", "poly-power", "constant-power",
         "poly-product", "max-deg", "max-deg-negative", "faithfulness-m-n", "verify-s8-max-deg",
         "faithfulness-4-strands-m-n", "faithfulness-4-strands-unfaithful", "faithfulness-strands",
         "faithfulness-8-strands", "poly-length", "poly-length-spaces", "verify-s8-N-zero",
         "verify-s8-N-negative", "verify-s8-N", "verify-s8-3-strands-m-n", "verify-s8-7-strands",
         "verify-s8-m-alone", "verify-s8-N-and-m-n", "wseries-m-alone", "young-enum-m-n", "young-enum-m-zero", "spectrum-n",
         "spectrum-n-negative", "reduce-strands", "reduce-dots", "reduce-dots-4-strands", "reduce-dots-1-1",
         "multiply-dots"],
)
def test_oversized_input_is_an_engine_error(capsys, argv):
    code, out, err = run_main(capsys, *argv)
    assert code == 1 and out == "" and "error" in json.loads(err)
    assert "Traceback" not in err


def test_size_bounds_admit_the_largest_inputs(capsys):
    code, out, _ = run_main(capsys, "dim", "--seq", "1,1,1,1,-1,-1,-1,-1", "--m", "8", "--n", "8", "--delta", "0")
    assert code == 0 and out == '{"dim":10321920}\n'
    code, out, _ = run_main(capsys, "omega", "--k", "10000", "--m", "1", "--n", "1", "--delta", "0")
    assert code == 0 and out == '{"omega":"2"}\n'
    code, out, _ = run_main(capsys, "qcancel", "--poly", "(y1+y8)^2*(y1+y8)^2", "--pair", "1,8")
    assert code == 0 and out == '{"result":true}\n'
    code, out, _ = run_main(capsys, "center-basis", "--seq", "1,-1", "--max-deg", "3", "--m", "2", "--n", "2", "--delta", "0")
    assert code == 0 and len(json.loads(out)["basis"]) == 7
    # every monomial of degree <= 3 on 8 strands, two orderings; bytes pinned
    for seq, digest, size in (
        ("1,1,1,1,-1,-1,-1,-1", "fe8122e8215fb78c", 1544),
        ("1,-1,1,-1,1,-1,1,-1", "7b909a4eb2251312", 1816),
    ):
        code, out, _ = run_main(capsys, "center-basis", "--seq", seq, "--max-deg", "3", "--m", "8", "--n", "8", "--delta", "0")
        assert code == 0 and len(json.loads(out)["basis"]) == 7
        assert (hashlib.sha256(out.encode()).hexdigest()[:16], len(out.encode())) == (digest, size)
    code, out, _ = run_main(capsys, "faithfulness", "--seq", "1,-1", "--m", "4", "--n", "4", "--delta", "0")
    assert code == 0 and out == '{"dim":8,"faithful":true,"rank":8}\n'
    # every input of 3 strands at m + n = 8; 4 strands at m + n = 4, and at
    # (4,4,0) under the basis hypotheses
    code, out, _ = run_main(capsys, "faithfulness", "--seq", "1,1,-1", "--m", "7", "--n", "1", "--delta", "0")
    assert code == 0 and out == '{"certified":false,"rank":34,"spanning":48}\n'
    code, out, _ = run_main(capsys, "faithfulness", "--seq", "1,1,-1,-1", "--m", "3", "--n", "1", "--delta", "0")
    assert code == 0 and out == '{"certified":false,"rank":208,"spanning":384}\n'
    code, out, _ = run_main(capsys, "faithfulness", "--seq", "1,1,-1,-1", "--m", "4", "--n", "4", "--delta", "0")
    assert code == 0 and out == '{"dim":384,"faithful":true,"rank":384}\n'
    poly = "+".join(["y1"] * 667)  # 2000 characters
    code, out, _ = run_main(capsys, "qcancel", "--poly", poly, "--pair", "1,2")
    assert code == 0 and out == '{"result":false}\n'
    code, out, _ = run_main(capsys, "center-test", "--poly", "1" + " " * 1999, "--seq", "1,-1", "--m", "2", "--n", "2", "--delta", "0")
    assert code == 0 and out == '{"central":true}\n'
    code, out, _ = run_main(capsys, "verify-s8", "--seq", "1,-1", "--m", "2", "--n", "2", "--delta", "0", "--max-deg", "4")
    report = json.loads(out)
    assert code == 0 and report["dots_commute"]["instances"] == 1120
    assert all(not check["failures"] for check in report.values())
    # 3 PBW monomials x 2^6 slot tuples x 6^3 = 41,472 of MAX_S8_WORK = 50,000
    code, out, _ = run_main(capsys, "verify-s8", "--seq", "1,-1,1,-1,1,-1", "--m", "1", "--n", "1", "--delta", "0")
    report = json.loads(out)
    assert code == 0 and report["dots_commute"]["instances"] == 15 * 3 * 2**6
    assert all(not check["failures"] for check in report.values())
    code, out, _ = run_main(capsys, "verify-s8", "--seq", "1,-1", "--N", "16")
    assert code == 0 and all(not check["failures"] for check in json.loads(out).values())
    # the widest strip on both sides
    code, out, _ = run_main(capsys, "spectrum", "--seq", "1,-1", "--m", "32", "--n", "32", "--delta", "0")
    assert code == 0 and json.loads(out)["tuples"][-1] == ["32", "32"]
    code, out, _ = run_main(capsys, "young-enum", "--seq", "1,-1", "--m", "32", "--n", "32", "--delta", "0")
    assert code == 0 and json.loads(out)["count"] == 6


def test_omega_prints_values_past_the_int_digit_limit(capsys):
    # omega_10000 at (3, 2, 1) has more digits than str(int) allows by default
    code, out, err = run_main(capsys, "omega", "--k", "10000", "--m", "3", "--n", "2", "--delta", "1")
    assert (code, err) == (0, "")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        got = Fraction(json.loads(out)["omega"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == OmegaSpec.from_mn_delta(3, 2, 1)(10000)


def test_clear_caches_empties_every_cache():
    # a memo cache added to any module must be reachable by clear_caches
    mods = [importlib.import_module(f"wbcat.{m.name}") for m in pkgutil.iter_modules(wbcat.__path__)]
    multiply(generator("e", (1, -1), 1), generator("y", (1, -1), 1), OmegaSpec.from_mn_delta(2, 2, 0))
    wbcat.clear_caches()
    caches = [
        (mod.__name__, name, obj.cache_info().currsize)
        for mod in mods
        for name, obj in vars(mod).items()
        if hasattr(obj, "cache_info")
    ]
    assert caches and all(size == 0 for _, _, size in caches), caches


def test_no_assert_statements_in_package():
    # invariants must survive python -O, which strips assert statements
    offenders = []
    for path in sorted(Path(wbcat.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_omega_example(capsys):
    code, out, _ = run_main(capsys, "omega", "--m", "1", "--n", "1", "--delta", "0", "--k", "5")
    assert code == 0 and out == '{"omega":"2"}\n'


def test_omega_large_k(capsys):
    # m = n = 1, delta = 0 gives b2 = 0, so omega_k = omega_1 = 2 for k >= 1
    code, out, err = run_main(capsys, "omega", "--k", "5000", "--m", "1", "--n", "1", "--delta", "0")
    assert (code, out, err) == (0, '{"omega":"2"}\n', "")


def test_qcancel_example(capsys):
    code, out, _ = run_main(capsys, "qcancel", "--poly", "y1+y2", "--pair", "1,2")
    assert code == 0 and out == '{"result":true}\n'
    code, out, _ = run_main(capsys, "qcancel", "--poly", "y1*y2", "--pair", "1,2")
    assert code == 0 and out == '{"result":false}\n'


def test_engine_error_exit_1(capsys):
    code, out, err = run_main(capsys, "omega", "--m", "2", "--n", "2", "--delta", "2", "--k", "1")
    assert code == 1 and out == "" and "degenerate" in err


@pytest.mark.parametrize(
    "exc",
    [ZeroDivisionError("division by zero"), ArithmeticError("overflow"),
     RecursionError("too deep"), AssertionError("invariant"), AssertionError()],
)
def test_engine_exceptions_map_to_json_error(capsys, monkeypatch, exc):
    def boom(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_omega", boom)
    code, out, err = run_main(capsys, "omega", "--m", "1", "--n", "1", "--delta", "0", "--k", "1")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": str(exc) or type(exc).__name__}


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--seq", "1,-1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_bad_seq_is_engine_error(capsys):
    code, _, err = run_main(capsys, "dim", "--seq", "1,2", "--m", "2", "--n", "2", "--delta", "0")
    assert code == 1 and "orientation" in err


def test_reduce_fixpoint_and_determinism(capsys):
    p = make_params(2, 2, 0)
    y1 = generator("y", (1, -1), 1)
    el = json.dumps(element_to_json(multiply(y1, y1, p.omega)))
    args = ("reduce", "--element", el, "--m", "2", "--n", "2", "--delta", "0")
    code, out1, _ = run_main(capsys, *args)
    assert code == 0
    code, out2, _ = run_main(capsys, *args)
    assert out2 == out1
    code, out3, _ = run_main(capsys, "reduce", "--element", out1.strip(), "--m", "2", "--n", "2", "--delta", "0")
    assert code == 0 and out3 == out1
    parsed = json.loads(out1)
    assert parsed["terms"][0]["coeff"] == "2"
    assert parsed["terms"][0]["monomial"]["gamma"] == [1, 0]


def _element(coeff='"1"', arc="t2", terms=None):
    mono = f'{{"arcs":[["b1","t1"],["b2","{arc}"]],"bottom":[1,-1],"top":[1,-1],"gamma":[2,0],"eta":[0,0]}}'
    terms = terms or f'[{{"coeff":{coeff},"monomial":{mono}}}]'
    return f'{{"bottom":[1,-1],"top":[1,-1],"terms":{terms}}}'


PARAMS = ("--m", "2", "--n", "2", "--delta", "0")


@pytest.mark.parametrize(
    "args",
    [
        ("--element", _element(coeff="1.5"), *PARAMS),
        ("--element", _element(arc="t9"), *PARAMS),
        ("--element", _element(terms='{"a": 1}'), *PARAMS),
        ("--element", '"x"', *PARAMS),
        ("--element", _element(), "--omega-json", "[1,2]"),
    ],
    ids=["float-coeff", "arc-endpoint", "terms-dict", "string-element", "omega-list"],
)
def test_malformed_json_is_a_json_error(args):
    r = subprocess.run(
        [sys.executable, "-m", "wbcat.cli", "reduce", *args], capture_output=True, text=True
    )
    assert r.returncode == 1 and r.stdout == ""
    assert "Traceback" not in r.stderr and "error" in json.loads(r.stderr)


@pytest.mark.parametrize(
    "seq, mnd, digest",
    [
        ("1,-1", (2, 2, 0), "df254e59713c3605"),
        ("-1,1", (2, 2, 1), "005b370c407d6cb9"),
        ("1,-1,1", (3, 3, 0), "4f3b5114c3ba2909"),
    ],
    ids=["(1,-1)@220", "(-1,1)@221", "(1,-1,1)@330"],
)
def test_struct_consts_bytes_are_pinned(capsys, seq, mnd, digest):
    m, n, delta = map(str, mnd)
    code, out, _ = run_main(capsys, "struct-consts", f"--seq={seq}", "--m", m, "--n", n, "--delta", delta)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest()[:16] == digest


_STRUCT3_DIGESTS = {
    (3, 3, 0): ["8ddc90975992ed43", "a14d641d385e7cd8", "4f3b5114c3ba2909", "8b61fbe6c98b5dd2",
                "8b61fbe6c98b5dd2", "4f3b5114c3ba2909", "a14d641d385e7cd8", "318e422efb7dcfee"],
    (3, 3, 1): ["23577eaed9e825e1", "a6ef4af35bd16c7e", "29858496a6a17a32", "d4b044ea52a45e10",
                "9d15761af5de5812", "580e86760cf03178", "83d10fdfd6db9a43", "2a8e53da2135e782"],
}


@pytest.mark.parametrize(
    "A, mnd, digest",
    [(A, mnd, d) for mnd, ds in _STRUCT3_DIGESTS.items() for A, d in zip(product((1, -1), repeat=3), ds)],
    ids=[f"{A}@{''.join(map(str, mnd))}".replace(" ", "")
         for mnd in _STRUCT3_DIGESTS for A in product((1, -1), repeat=3)],
)
def test_struct_consts_bytes_on_every_3_strand_ordering(capsys, A, mnd, digest):
    m, n, delta = map(str, mnd)
    seq = ",".join(map(str, A))
    # with no up strand (r = 0) the basis theorem does not apply, and stdout
    # says so with "certified":false
    code, out, err = run_main(capsys, "struct-consts", f"--seq={seq}", "--m", m, "--n", n, "--delta", delta)
    assert (code, err) == (0, "") and hashlib.sha256(out.encode()).hexdigest()[:16] == digest
    assert ('"certified":false' in out) == (1 not in A)


def _term(coeff, arcs, gamma, eta):
    A = [1, -1, 1]
    return {"coeff": coeff, "monomial": {"bottom": A, "top": A, "arcs": arcs, "gamma": gamma, "eta": eta}}


# Elements of End(1,-1,1) with dots that a regular monomial never carries:
# X at the left end of the bottom arc b1-b2 and at the top ends of through
# strands, Y at the left end of the bottom arc b2-b3 and at the right end of
# the top arc t2-t3.
_X = json.dumps({"bottom": [1, -1, 1], "top": [1, -1, 1], "terms": [
    _term("3/2", [["b1", "b2"], ["b3", "t3"], ["t1", "t2"]], [2, 0, 1], [1, 0, 0]),
    _term(-2, [["b1", "t1"], ["b2", "t2"], ["b3", "t3"]], [1, 0, 0], [0, 1, 1]),
]})
_Y = json.dumps({"bottom": [1, -1, 1], "top": [1, -1, 1], "terms": [
    _term(1, [["b1", "t1"], ["b2", "b3"], ["t2", "t3"]], [1, 1, 0], [0, 0, 2]),
]})


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("reduce", "--element", _X), "440ab471fb941914"),
        (("reduce", "--element", _X, "--affine"), "ea97b72493e0fdd2"),
        (("reduce", "--element", _Y), "bc01ad4907fe19b0"),
        (("reduce", "--element", _Y, "--affine"), "47d8b698fcfc5467"),
        (("multiply", "--x", _X, "--y", _Y), "06eeb2199e7052b7"),
        (("multiply", "--x", _X, "--y", _Y, "--affine"), "5da89046dece5d17"),
    ],
    ids=["reduce-x", "reduce-x-affine", "reduce-y", "reduce-y-affine", "multiply", "multiply-affine"],
)
def test_irregular_reduce_and_multiply_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run_main(capsys, *argv, "--m", "3", "--n", "3", "--delta", "0")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_reduce_affine_keeps_dot_stack(capsys):
    p = make_params(2, 2, 0)
    y1 = generator("y", (1, -1), 1)
    el = json.dumps(element_to_json(multiply(y1, y1, p.omega)))
    code, out, _ = run_main(capsys, "reduce", "--element", el, "--m", "2", "--n", "2", "--delta", "0", "--affine")
    assert code == 0
    assert json.loads(out)["terms"][0]["monomial"]["gamma"] == [2, 0]


def test_multiply_matches_engine(capsys):
    y1 = json.dumps(element_to_json(generator("y", (1, -1), 1)))
    code, out, _ = run_main(capsys, "multiply", "--x", y1, "--y", y1, "--m", "2", "--n", "2", "--delta", "0")
    assert code == 0
    assert json.loads(out)["terms"][0]["coeff"] == "2"


def test_struct_consts_single_strand(capsys):
    code, out, _ = run_main(capsys, "struct-consts", "--seq", "1", "--m", "2", "--n", "2", "--delta", "0")
    assert code == 0
    assert json.loads(out) == {
        "dim": 2,
        "triples": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 1, "2"]],
    }


@pytest.mark.parametrize(
    "argv",
    [("center-test", "--seq", "1,-1", "--m", "2", "--n", "2", "--delta", "0"), ("qcancel", "--pair", "1,2")],
    ids=["center-test", "qcancel"],
)
def test_zero_denominator_in_poly_is_named(capsys, argv):
    code, out, err = run_main(capsys, *argv, "--poly", "y1+1/0")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "zero denominator in polynomial constant '1/0'"}


ONE_STRAND = '{"bottom":[1],"top":[1],"arcs":[["b1","t1"]]}'


@pytest.mark.parametrize(
    "argv",
    [
        ("reduce", "--element", f'{{"bottom":[1],"top":[1],"terms":[{{"coeff":"1/0","monomial":{ONE_STRAND}}}]}}', *PARAMS),
        ("wseries", "--seq", "1,-1", "--i", "1", "--k", "1", "--omega-json", '{"kind":"list","values":["1/0",2]}'),
    ],
    ids=["reduce-coeff", "wseries-omega"],
)
def test_zero_denominator_in_a_rational_is_named(capsys, argv):
    code, out, err = run_main(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "zero denominator in rational '1/0'"}


@pytest.mark.parametrize("arc", ['["b1","t1","x"]', "[]"], ids=["three-names", "empty"])
def test_arc_that_is_not_a_pair_of_names_is_refused(capsys, arc):
    mono = f'{{"bottom":[1],"top":[1],"arcs":[{arc}]}}'
    element = f'{{"bottom":[1],"top":[1],"terms":[{{"coeff":"1","monomial":{mono}}}]}}'
    code, out, err = run_main(capsys, "reduce", "--element", element, *PARAMS)
    assert code == 1 and out == ""
    arcs = [json.loads(arc)]
    assert json.loads(err) == {"error": f"field 'arcs' must be a list of point-name pairs, got {arcs!r}"}


@pytest.mark.parametrize("i", ["0", "4"])
def test_wseries_position_off_the_object_is_a_range_error(capsys, i):
    args = ("--seq", "1,1,-1", "--k", "2", "--m", "2", "--n", "2", "--delta", "0")
    code, out, err = run_main(capsys, "wseries", "--i", i, *args)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": f"w_coeff position i = {i} is outside 1..2"}
    # a position on the object with equal orientations keeps its own message
    code, _, err = run_main(capsys, "wseries", "--i", "1", *args)
    assert code == 1 and "opposite orientations" in json.loads(err)["error"]


def test_center_commands(capsys):
    code, out, _ = run_main(capsys, "center-basis", "--seq", "1,-1", "--max-deg", "1", "--m", "2", "--n", "2", "--delta", "0")
    assert code == 0 and json.loads(out) == {"basis": ["1", "y1+y2"]}
    code, out, _ = run_main(capsys, "center-test", "--poly", "y1", "--seq", "1,-1", "--m", "2", "--n", "2", "--delta", "0")
    assert code == 0 and json.loads(out) == {"central": False}


def test_center_test_checks_the_swap_of_separated_strands(capsys):
    # no adjacent generator of (1,-1,1) swaps strands 1 and 3, and this
    # polynomial is not symmetric in y1 and y3
    mnd = ("--m", "3", "--n", "3", "--delta", "0")
    poly = "y1*y2*y3+y2*y3^2+y2^2*y3+y1*y3^2"
    code, out, _ = run_main(capsys, "center-test", "--poly", poly, "--seq", "1,-1,1", *mnd)
    assert code == 0 and out == '{"central":false}\n'
    code, out, _ = run_main(capsys, "center-test", "--poly", "y1+y2+y3", "--seq", "1,-1,1", *mnd)
    assert code == 0 and out == '{"central":true}\n'


# stdout of these calls before "certified" was added there; each call then
# wrote a {"warning": ...} line on stderr instead
_UNCERTIFIED = {
    ("basis", "--seq=-1", "--m", "2", "--n", "2", "--delta", "0"):
        '{"count":2,"monomials":[{"arcs":[["b1","t1"]],"bottom":[-1],"eta":[0],"gamma":[0],'
        '"top":[-1]},{"arcs":[["b1","t1"]],"bottom":[-1],"eta":[0],"gamma":[1],"top":[-1]}]}',
    ("young-enum", "--seq", "1,-1", "--m", "1", "--n", "1", "--delta", "0"):
        '{"count":4,"factors":[[0,0],[1,-1],[-1,1],[0,0]],"sequences":[[["add_above",1,"1"],'
        '["remove_above",1,"1"]],[["add_above",1,"1"],["add_below",2,"1"]],[["add_above",2,"0"],'
        '["add_below",1,"0"]],[["add_above",2,"0"],["remove_above",2,"0"]]]}',
    ("spectrum", "--seq", "1,-1", "--m", "1", "--n", "1", "--delta", "0"):
        '{"count":4,"tuples":[["0","0"],["0","0"],["1","-1"],["1","1"]]}',
}


def test_uncertified_answers_say_so_once_on_stdout():
    # outside the basis hypotheses, or on a strip narrower than the walk, the
    # answer gains "certified":false on stdout, and stderr stays empty
    for args, before in _UNCERTIFIED.items():
        r = subprocess.run([sys.executable, "-m", "wbcat.cli", *args], capture_output=True, text=True)
        assert (r.returncode, r.stderr) == (0, "")
        assert json.loads(r.stdout) == {**json.loads(before), "certified": False}
    for args in (("struct-consts", "--seq=-1,-1", "--m", "2", "--n", "2", "--delta", "0"),
                 ("young-enum", "--seq", "1,1,-1,-1,1", "--m", "4", "--n", "4", "--delta", "2")):
        r = subprocess.run([sys.executable, "-m", "wbcat.cli", *args], capture_output=True, text=True)
        assert (r.returncode, r.stderr) == (0, "")
        assert json.loads(r.stdout)["certified"] is False
    # inside the hypotheses the key is absent
    r = subprocess.run([sys.executable, "-m", "wbcat.cli", "basis", "--seq=1,-1", "--m", "2",
                        "--n", "2", "--delta", "0"], capture_output=True, text=True)
    assert (r.returncode, r.stderr) == (0, "") and "certified" not in json.loads(r.stdout)


def test_wseries(capsys):
    code, out, _ = run_main(capsys, "wseries", "--seq", "1,-1,1", "--i", "1", "--k", "2", "--m", "2", "--n", "2", "--delta", "0")
    assert code == 0 and json.loads(out) == {"poly": "16"}
    code, _, err = run_main(capsys, "wseries", "--seq", "1,1", "--i", "1", "--k", "0", "--m", "2", "--n", "2", "--delta", "0")
    assert code == 1 and "orientation" in err


def test_verify_relations_reports_a_failing_relation(capsys, monkeypatch):
    # planted fault: a crossing consumes a dot with the wrong sign, so
    # s_i y_i = y_{i+1} s_i - 1 fails on (1,1), and only that relation
    step = affine._step

    def flipped(s_variant, pos, i):
        new_pos, sign, has_cap = step(s_variant, pos, i)
        return new_pos, -sign, has_cap

    monkeypatch.setattr(affine, "_step", flipped)
    wbcat.clear_caches()
    try:
        code, out, err = run_main(capsys, "verify-relations", "--seq", "1,1")
    finally:
        monkeypatch.undo()
        wbcat.clear_caches()
    rep = json.loads(out)
    assert (code, err) == (0, "")
    assert rep["all_ok"] is False and rep["failed"] == ["dot_cross"]
    code, out, _ = run_main(capsys, "verify-relations", "--seq", "1,1")
    assert code == 0 and json.loads(out)["all_ok"] is True


def test_verify_relations(capsys):
    code, out, _ = run_main(capsys, "verify-relations", "--seq", "1,-1")
    assert code == 0
    rep = json.loads(out)
    assert rep["all_ok"] is True and rep["failed"] == []
    assert "cap_y_cap" in rep["ok"] and "cap_sq" in rep["ok"]


def test_verify_relations_needs_omega_for_every_instance(capsys):
    # cap_y_cap has 4 instances on (1,-1), up to omega_3: one value is an
    # engine error, not an empty relation
    omega = ("--omega-json", '{"kind":"list","values":[2]}')
    code, out, err = run_main(capsys, "verify-relations", "--seq", "1,-1", *omega)
    assert (code, out) == (1, "") and "omega_1" in json.loads(err)["error"]
    omega = ("--omega-json", '{"kind":"list","values":[2,3,5,7]}')
    code, out, _ = run_main(capsys, "verify-relations", "--seq", "1,-1", *omega)
    rep = json.loads(out)
    assert code == 0 and rep["all_ok"] is True and "cap_y_cap" in rep["ok"]


def test_verify_s8_trivial(capsys):
    code, out, _ = run_main(capsys, "verify-s8", "--seq", "1,-1", "--N", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep and all(v["failures"] == [] for v in rep.values())


@pytest.mark.parametrize(
    "seq, argv, digest",
    [
        ("1,-1", ("--N", "2"), "1e428f0a50d6480f"),
        ("1,-1", ("--N", "3"), "4ba0982a71dfb015"),
        ("1,-1", ("--N", "4"), "5b6cf2f4d662cba6"),
        ("1,-1,1", ("--N", "3"), "25d5718a35f839c3"),
        ("1,1,-1", ("--N", "2", "--max-deg", "0"), "679435ea1da68a66"),
    ],
    ids=["(1,-1)N2", "(1,-1)N3", "(1,-1)N4", "(1,-1,1)N3", "(1,1,-1)N2d0"],
)
def test_verify_s8_trivial_bytes_are_pinned(capsys, seq, argv, digest):
    # the trivial module is the m = 0 parabolic module; the report is unchanged
    code, out, err = run_main(capsys, "verify-s8", "--seq", seq, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_verify_s8_refuses_an_object_it_cannot_check(capsys):
    # no identity has an instance on one strand: a report of zeros is not a pass
    for argv in (("--N", "2"), ("--m", "1", "--n", "1", "--delta", "0")):
        code, out, err = run_main(capsys, "verify-s8", "--seq", "1", *argv)
        assert (code, out) == (1, "") and "no operator identity" in json.loads(err)["error"]


def test_spectrum(capsys):
    code, out, _ = run_main(capsys, "spectrum", "--seq", "1,-1", "--m", "2", "--n", "2", "--delta", "0")
    assert code == 0
    assert json.loads(out) == {
        "count": 6,
        "tuples": [["0", "0"], ["0", "0"], ["0", "2"], ["2", "-2"], ["2", "0"], ["2", "2"]],
    }


def test_young_enum(capsys):
    code, out, _ = run_main(capsys, "young-enum", "--seq", "1", "--m", "2", "--n", "2", "--delta", "1")
    assert code == 0
    assert json.loads(out) == {
        "count": 2,
        "factors": [[0, -1, 0, 0], [-1, -1, 1, 0]],
        "sequences": [[["remove_below", 1, "-1"]], [["add_above", 3, "0"]]],
    }


def test_faithfulness(capsys):
    code, out, _ = run_main(capsys, "faithfulness", "--seq", "1", "--m", "2", "--n", "2", "--delta", "0")
    assert code == 0
    assert json.loads(out) == {"dim": 2, "faithful": True, "rank": 2}


def test_faithfulness_outside_hypotheses_counts_without_a_warning():
    # the size is counted, not enumerated: stdout already says the monomials
    # only span, and stderr stays empty
    r = subprocess.run(
        [sys.executable, "-m", "wbcat.cli", "faithfulness", "--seq", "1,1,-1",
         "--m", "2", "--n", "3", "--delta", "1"],
        capture_output=True,
        text=True,
    )
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == '{"certified":false,"rank":47,"spanning":48}\n'


def test_console_entry_point():
    r = subprocess.run(
        [sys.executable, "-m", "wbcat.cli", "dim", "--seq", "1,-1", "--m", "2", "--n", "2", "--delta", "0"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0 and r.stdout == '{"dim":8}\n'


SUBCOMMANDS = (
    "reduce", "multiply", "basis", "dim", "struct-consts", "wseries", "omega", "center-test",
    "center-basis", "qcancel", "verify-relations", "verify-s8", "spectrum", "young-enum",
    "faithfulness",
)


@pytest.mark.parametrize(
    "argv, code, digest",
    [
        (("--help",), 0, "719204d049ea6d6b"),
        *[((sub, "--help"), 0, digest) for sub, digest in zip(SUBCOMMANDS, (
            "2733a0215a3e9537", "c92607c249f1d56d", "d67ba502261dd7ef", "c858d2c6a53c7313",
            "701a6764173a3988", "521ffef465193706", "79fccdc8116ca3a3", "20a60148a56bd560",
            "4ae3ee788c1ec774", "d963b3f1e4ff1f48", "d401e992d5e78bfb", "8d176149dd940d17",
            "b27983fefad108f8", "2e89d5d8e3acb19e", "aaadbd04cde0b8fb",
        ))],
        (("dim", "--seq", "1,-1"), 2, "7866b77388f102df"),
        (("no-such",), 2, "d2963133801d7aab"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else None,
)
def test_help_and_usage_bytes_are_pinned(capsys, monkeypatch, argv, code, digest):
    # argparse wraps help and usage text to the terminal width; the digests
    # were recorded with Python 3.11's argparse
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    text = captured.out if code == 0 else captured.err
    assert exc.value.code == code and hashlib.sha256(text.encode()).hexdigest()[:16] == digest


OMEGA_JSON = ("--omega-json", '{"kind":"list","values":[7,11,13]}')
EL = _element()


@pytest.mark.parametrize(
    "argv",
    [
        ("reduce", "--element", EL, *PARAMS, *OMEGA_JSON),
        ("reduce", "--element", EL, "--affine", "--n", "2", *OMEGA_JSON),
        ("multiply", "--x", EL, "--y", EL, *PARAMS, *OMEGA_JSON),
        ("multiply", "--x", EL, "--y", EL, "--affine", "--delta", "0", *OMEGA_JSON),
        ("wseries", "--seq", "1,-1", "--i", "1", "--k", "1", *PARAMS, *OMEGA_JSON),
        ("verify-relations", "--seq", "1,-1", "--m", "2", "--n", "2", "--delta", "2", *OMEGA_JSON),
    ],
    ids=["reduce", "reduce-affine", "multiply", "multiply-affine", "wseries", "verify-relations"],
)
def test_two_parameter_sources_are_refused(capsys, argv):
    # neither source may silently override the other
    code, out, err = run_main(capsys, *argv)
    error = json.loads(err)["error"]
    assert (code, out) == (1, "") and error == f"{argv[0]} takes --omega-json or --m/--n/--delta, not both"


@pytest.mark.parametrize(
    "argv, error",
    [
        (("verify-relations", "--seq", "1,-1", "--n", "2"), "--m, --n and --delta must be given together"),
        (("wseries", "--seq", "1,-1", "--i", "1", "--k", "1", "--delta", "0"),
         "--m, --n and --delta must be given together"),
        (("reduce", "--element", EL, "--n", "2"), "--m, --n and --delta must be given together"),
        (("verify-s8", "--seq", "1,-1", "--n", "2"), "--m, --n and --delta must be given together"),
        (("wseries", "--seq", "1,-1", "--i", "1", "--k", "1", *PARAMS, "--omega-json", ""),
         "wseries takes --omega-json or --m/--n/--delta, not both"),
    ],
    ids=["verify-relations-n-alone", "wseries-delta-alone", "reduce-n-alone", "verify-s8-n-alone",
         "wseries-empty-omega-json"],
)
def test_any_given_parameter_flag_selects_its_source(capsys, argv, error):
    # one of --m/--n/--delta selects the triple, and an empty --omega-json is given
    code, out, err = run_main(capsys, *argv)
    assert (code, out) == (1, "") and json.loads(err)["error"] == error


@pytest.mark.parametrize("i, k", [(1, 64), (2, 64), (3, 32), (4, 24), (5, 20), (6, 18), (7, 16)])
def test_wseries_k_bound_depends_on_i(capsys, i, k):
    # the bound was measured on the alternating prefix, the costliest: there
    # the largest admitted k takes about 4-5 s per process at (3,2,1). It is
    # admitted here on the all-up prefix, which is cheap, and the next k is
    # refused on the alternating one.
    up = ",".join(["1"] * i + ["-1"])
    code, out, _ = run_main(capsys, "wseries", "--seq", up, "--i", str(i), "--k", str(k), *PARAMS)
    assert code == 0 and json.loads(out)["poly"]
    argv = ("wseries", "--seq", "1,-1,1,-1,1,-1,1,-1", "--i", str(i), "--k", str(k + 1), *PARAMS)
    code, out, err = run_main(capsys, *argv)
    assert (code, out) == (1, "") and json.loads(err)["error"] == f"--k at --i {i} must lie in 0..{k}"


# omega from the triple, or non-integral values as OmegaSpec JSON
_SOURCES = {
    "@220": PARAMS,
    "@321": ("--m", "3", "--n", "2", "--delta", "1"),
    "fractional omega": ("--omega-json", json.dumps(
        {"kind": "list", "values": ["1/2", "-3/4", "5/3", "2", "-7/5", "11/6", "1/9", "4", "-13/8", "3/7"]}
    )),
}
_POLYNOMIAL_CALLS = {
    **{
        f"wseries {seq} i={i} {name}": [
            ("wseries", "--seq", seq, "--i", str(i), "--k", str(k), *flags) for k in range(9)
        ]
        for seq, positions in (("1,-1,1,-1,1", (1, 2, 3, 4)), ("1,1,-1,-1", (2,)))
        for i in positions
        for name, flags in _SOURCES.items()
    },
    **{
        f"center-basis {k} strands": [
            ("center-basis", "--seq=" + ",".join(map(str, A)), "--max-deg", "3", "--m", "4", "--n", "4", "--delta", "0")
            for A in product((1, -1), repeat=k)
        ]
        for k in (2, 3, 4)
    },
    "center-test": [
        ("center-test", "--poly=" + poly, "--seq", seq, *PARAMS)
        for poly, seq in (
            ("-1/2*y1-1/2*y2", "1,-1"),
            ("1/2*y1^2+1/3*y2", "1,-1"),
            ("(1/2*y1+1/2*y2)^2-3/4", "1,-1"),
            ("-1/2*y1", "1,-1,1"),
            ("2/3*(y1+y2+y3)", "1,1,-1"),
        )
    ],
    "qcancel": [
        ("qcancel", "--poly=" + poly, "--pair", pair)
        for poly, pair in (
            ("-1/2*y1", "1,2"),
            ("-1/2*y1+1/2*y2", "1,2"),
            ("1/2*y1+1/2*y2+3/4", "1,2"),
            ("(1/2*y1+1/2*y2)^2*(y3-1/3)", "1,2"),
            ("1/3*y1^2-1/3*y2^2+5/7*y3", "2,1"),
        )
    ],
}


# sha256 of the concatenated stdout of each group of calls, recorded when
# MultiPoly still kept every coefficient as a Fraction
_POLYNOMIAL_DIGESTS = {
    "wseries 1,-1,1,-1,1 i=1 @220": "e85adec3c5806f95",
    "wseries 1,-1,1,-1,1 i=1 @321": "08fd8212a9684b81",
    "wseries 1,-1,1,-1,1 i=1 fractional omega": "f2c77aaa0424c69e",
    "wseries 1,-1,1,-1,1 i=2 @220": "490885e1b9f4b8b6",
    "wseries 1,-1,1,-1,1 i=2 @321": "1e56eb08394c5683",
    "wseries 1,-1,1,-1,1 i=2 fractional omega": "f7d58efb47da1901",
    "wseries 1,-1,1,-1,1 i=3 @220": "34eaf282f711dd73",
    "wseries 1,-1,1,-1,1 i=3 @321": "187b48821a0c66da",
    "wseries 1,-1,1,-1,1 i=3 fractional omega": "e0252660192ebc59",
    "wseries 1,-1,1,-1,1 i=4 @220": "bdcb92d58c7047f3",
    "wseries 1,-1,1,-1,1 i=4 @321": "81ebfefa52b41945",
    "wseries 1,-1,1,-1,1 i=4 fractional omega": "4b5e115bbd3162aa",
    "wseries 1,1,-1,-1 i=2 @220": "3f84d4d556d0eaed",
    "wseries 1,1,-1,-1 i=2 @321": "11b7d282227d8d66",
    "wseries 1,1,-1,-1 i=2 fractional omega": "2a3e9ac9689efd42",
    "center-basis 2 strands": "1d563cb4e0706fff",
    "center-basis 3 strands": "5770ee713a9aa2f7",
    "center-basis 4 strands": "083dd8c46487792b",
    "center-test": "367cc25385704af9",
    "qcancel": "e29d357d03e051ca",
}


@pytest.mark.parametrize("label", _POLYNOMIAL_DIGESTS)
def test_polynomial_bytes_are_pinned(capsys, label):
    out = ""
    for argv in _POLYNOMIAL_CALLS[label]:
        code, text, _ = run_main(capsys, *argv)
        assert code == 0
        out += text
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == _POLYNOMIAL_DIGESTS[label]


def test_readme_lists_every_subcommand_in_table_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.findall(r"`([a-z0-9-]+)`", re.search(r"The full list: (.*?)\.", readme, re.S)[1])
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert listed == list(subparsers.choices) == list(SUBCOMMANDS)


def test_verify_relations_refuses_an_object_it_cannot_check(capsys):
    # no relation has an instance on one strand: an empty "ok" is not a pass
    for seq in ("--seq=1", "--seq=-1"):
        code, out, err = run_main(capsys, "verify-relations", seq)
        assert (code, out) == (1, "") and "no relation has an instance" in json.loads(err)["error"]


def test_basis_bytes_are_pinned(capsys):
    # sha256 recorded before compose_diagrams became one strand walk
    code, out, _ = run_main(capsys, "basis", "--seq", "1,-1", *PARAMS)
    assert code == 0 and json.loads(out)["count"] == 8
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "92790508fc4033ab"


def test_reduce_reads_the_element_from_a_file(capsys, tmp_path):
    path = tmp_path / "element.json"
    path.write_text(_element(), encoding="utf-8")
    code, from_file, _ = run_main(capsys, "reduce", "--element", f"@{path}", *PARAMS)
    assert code == 0
    assert run_main(capsys, "reduce", "--element", _element(), *PARAMS)[1] == from_file
    code, out, err = run_main(capsys, "reduce", "--element", f"@{tmp_path / 'missing.json'}", *PARAMS)
    assert (code, out) == (1, "") and "No such file" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "argv, error",
    [
        (("center-test", "--seq", "1,-1", "--poly", "y3", *PARAMS), "more strands than the object"),
        (("dim", "--seq", "1,x", *PARAMS), "bad orientation sequence '1,x'"),
        (("qcancel", "--poly", "y1", "--pair", "1"), "bad pair '1'"),
        (("verify-s8", "--seq", "1,-1"), "needs --N (trivial) or --m/--n/--delta"),
    ],
    ids=["center-test-variable", "seq-entry", "qcancel-pair", "verify-s8-no-source"],
)
def test_malformed_argument_is_an_engine_error(capsys, argv, error):
    code, out, err = run_main(capsys, *argv)
    assert (code, out) == (1, "") and error in json.loads(err)["error"]


def test_seq_starting_with_a_down_strand_needs_an_equals_sign(capsys):
    # argparse reads a separate "-1,1" as a flag: a usage error, not a value
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--seq", "-1,1", *PARAMS])
    assert exc.value.code == 2 and "--seq: expected one argument" in capsys.readouterr().err
    code, out, _ = run_main(capsys, "dim", "--seq=-1,1", *PARAMS)
    assert code == 0 and out == '{"dim":8}\n'

import ast
import hashlib
import importlib
import json
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wbcat
from wbcat import cli
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
    with pytest.warns(UserWarning, match="basis hypotheses"):
        code, out, _ = run_main(capsys, "faithfulness", *args)
    assert code == 0 and json.loads(out) == {"certified": False, "rank": 6, "spanning": 8}


def test_struct_consts_outside_basis_hypotheses_is_not_a_dimension(capsys):
    args = ("--seq", "1,-1", "--m", "1", "--n", "1", "--delta", "0")
    with pytest.warns(UserWarning, match="basis hypotheses") as record:
        code, out, _ = run_main(capsys, "struct-consts", *args)
    assert len(record) == 1  # the basis is enumerated once
    got = json.loads(out)
    assert code == 0 and "dim" not in got
    assert (got["certified"], got["spanning"]) == (False, 8) and got["triples"]


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
    ],
    ids=["omega-k", "omega-negative-k", "wseries-k", "seq-length", "poly-variable",
         "center-test-variable", "pair", "pair-zero", "poly-power", "constant-power",
         "poly-product", "max-deg", "max-deg-negative", "faithfulness-m-n", "verify-s8-max-deg"],
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
    code, out, _ = run_main(capsys, "verify-s8", "--seq", "1,-1", "--m", "2", "--n", "2", "--delta", "0", "--max-deg", "4")
    report = json.loads(out)
    assert code == 0 and report["dots_commute"]["instances"] == 1120
    assert all(not check["failures"] for check in report.values())


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


def test_center_commands(capsys):
    code, out, _ = run_main(capsys, "center-basis", "--seq", "1,-1", "--max-deg", "1", "--m", "2", "--n", "2", "--delta", "0")
    assert code == 0 and json.loads(out) == {"basis": ["1", "y1+y2"]}
    code, out, _ = run_main(capsys, "center-test", "--poly", "y1", "--seq", "1,-1", "--m", "2", "--n", "2", "--delta", "0")
    assert code == 0 and json.loads(out) == {"central": False}


def test_wseries(capsys):
    code, out, _ = run_main(capsys, "wseries", "--seq", "1,-1,1", "--i", "1", "--k", "2", "--m", "2", "--n", "2", "--delta", "0")
    assert code == 0 and json.loads(out) == {"poly": "16"}
    code, _, err = run_main(capsys, "wseries", "--seq", "1,1", "--i", "1", "--k", "0", "--m", "2", "--n", "2", "--delta", "0")
    assert code == 1 and "orientation" in err


def test_verify_relations(capsys):
    code, out, _ = run_main(capsys, "verify-relations", "--seq", "1,-1")
    assert code == 0
    rep = json.loads(out)
    assert rep["all_ok"] is True and rep["failed"] == []
    assert "cap_y_cap" in rep["ok"] and "cap_sq" in rep["ok"]


def test_verify_s8_trivial(capsys):
    code, out, _ = run_main(capsys, "verify-s8", "--seq", "1,-1", "--N", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep and all(v["failures"] == [] for v in rep.values())


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


def test_console_entry_point():
    r = subprocess.run(
        [sys.executable, "-m", "wbcat.cli", "dim", "--seq", "1,-1", "--m", "2", "--n", "2", "--delta", "0"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0 and r.stdout == '{"dim":8}\n'

"""Batch command-line front end: each engine operation as a one-shot
subcommand with deterministic JSON on stdout.

Conventions
-----------
* exit code 0 on success, 1 on engine errors (bad input values, violated
  preconditions, arithmetic faults, failed internal checks, runaway
  recursion: a JSON {"error": ...} object on stderr, never a traceback),
  2 on usage errors (unknown flags/subcommands);
* every algebraic number is emitted as an exact rational string; counts,
  dimensions and indices are plain integers;
* JSON keys are sorted and separators fixed, so reruns are byte-identical;
* elements are read either inline as JSON or from a file via @path;
* input sizes are bounded before any work starts, with an engine error
  (exit 1) beyond the bound: an orientation sequence --seq has at most
  MAX_STRANDS = 8 entries, `omega --k` lies in 0..MAX_OMEGA_K = 10000
  (omega_k is a loop of k steps) and `wseries --k` in 0..MAX_WSERIES_K = 64
  (w_k is a polynomial whose size grows with k). A polynomial's variables
  y_i and `qcancel --pair` lie in 1..MAX_STRANDS, its degree is at most
  exact.MAX_POLY_DEGREE = 4, and `center-basis --max-deg` lies in
  0..MAX_CENTER_DEG = 3 (every monomial of that degree on 8 strands, about
  0.15 s). `faithfulness` ranks over (m+n)^k tensor inputs, so there
  --m + --n is at most MAX_RANK_N = 8, and `verify-s8 --max-deg` lies in
  0..MAX_S8_DEG = 4 (the spanning set grows with that degree). The
  commands that enumerate the basis grow like 2^k k! in the number k of
  strands;
* sizes of End(A) are printed as "dim" only under the basis hypotheses
  (cyclotomic.basis_hypotheses); otherwise the 2^k k! regular monomials
  only span, and the size is printed as "spanning" next to
  "certified": false;
* polynomials use the grammar of exact.poly_parse:

      expr     = term (("+" | "-") term)* ;
      term     = factor ("*" factor)* ;
      factor   = atom ("^" integer)? ;
      atom     = rational | variable | "(" expr ")" | "-" atom ;
      rational = digits ("/" digits)? ;
      variable = "y" digits ;
"""

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from . import affine, cyclotomic, glrep, young4
from .affine import OmegaSpec
from .diagrams import (
    element_from_json,
    element_to_json,
    monomial_to_json,
    orseq,
)
from .exact import poly_parse
from .relations import relation_ids

MAX_STRANDS = 8
MAX_OMEGA_K = 10_000
MAX_WSERIES_K = 64
MAX_CENTER_DEG = 3
MAX_RANK_N = 8
MAX_S8_DEG = 4

# generic parameter-free omega values for relation checking (relations hold
# identically in omega; any point with enough coordinates will do)
_GENERIC_OMEGA = OmegaSpec.from_list(
    [Fraction(p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)]
)


def _emit(obj) -> int:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


def _parse_seq(text):
    try:
        entries = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"bad orientation sequence {text!r}")
    if not entries or any(e not in (1, -1) for e in entries):
        raise ValueError("orientation sequence entries must be 1 or -1")
    if len(entries) > MAX_STRANDS:
        raise ValueError(f"orientation sequence has more than {MAX_STRANDS} entries")
    return orseq(entries)


def _check_range(name, value, lo, hi):
    if not lo <= value <= hi:
        raise ValueError(f"{name} must lie in {lo}..{hi}")


def _load_json_arg(text):
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(text)


def _poly_arg(text, nvars_min=0):
    indices = [int(s[1:]) for s in re.findall(r"y\d+", text)]
    for i in indices:
        _check_range("a variable index", i, 1, MAX_STRANDS)
    nvars = max(indices + [nvars_min])
    return poly_parse(text, nvars), nvars


def _params_from(args):
    return cyclotomic.make_params(args.m, args.n, args.delta)


def _omega_from(args):
    if getattr(args, "omega_json", None):
        return OmegaSpec.from_json(_load_json_arg(args.omega_json))
    if args.m is not None:
        return _params_from(args).omega
    return None


def _add_params(sub, required=True):
    sub.add_argument("--m", type=int, required=required, default=None)
    sub.add_argument("--n", type=int, required=required, default=None)
    sub.add_argument("--delta", type=int, required=required, default=None)


def _add_omega_source(sub):
    _add_params(sub, required=False)
    sub.add_argument(
        "--omega-json",
        help="omega values as OmegaSpec JSON (alternative to --m/--n/--delta)",
    )


def cmd_reduce(args):
    el = element_from_json(_load_json_arg(args.element))
    if args.affine or args.m is None:
        omega = _omega_from(args)
        if omega is None:
            raise ValueError("reduce needs --m/--n/--delta or --omega-json")
        out = affine.reduce(el, omega)
    else:
        out = cyclotomic.cyclo_reduce(el, _params_from(args))
    return _emit(element_to_json(out))


def cmd_multiply(args):
    x = element_from_json(_load_json_arg(args.x))
    y = element_from_json(_load_json_arg(args.y))
    if args.m is not None and not args.affine:
        p = _params_from(args)
        out = cyclotomic.cyclo_reduce(affine.multiply(x, y, p.omega), p)
    else:
        omega = _omega_from(args)
        if omega is None:
            raise ValueError("multiply needs --m/--n/--delta or --omega-json")
        out = affine.multiply(x, y, omega)
    return _emit(element_to_json(out))


def cmd_basis(args):
    A = _parse_seq(args.seq)
    monos = cyclotomic.basis(A, _params_from(args))
    return _emit(
        {"count": len(monos), "monomials": [monomial_to_json(m) for m in monos]}
    )


def _size_fields(A, p, size):
    """{"dim": size} when the basis theorem applies to End(A), otherwise
    {"certified": False, "spanning": size}: the monomials only span."""
    if cyclotomic.basis_hypotheses(A, p):
        return {"dim": size}
    return {"certified": False, "spanning": size}


def _monomial_count(A):
    """2^k k! regular monomials on k strands."""
    return 2 ** len(A) * math.factorial(len(A))


def cmd_dim(args):
    A = _parse_seq(args.seq)
    return _emit(_size_fields(A, _params_from(args), _monomial_count(A)))


def cmd_struct_consts(args):
    A = _parse_seq(args.seq)
    p = _params_from(args)
    table = cyclotomic.structure_constants(A, p)
    triples = [[i, j, k, str(c)] for (i, j, k), c in sorted(table.items())]
    return _emit({**_size_fields(A, p, _monomial_count(A)), "triples": triples})


def cmd_wseries(args):
    A = _parse_seq(args.seq)
    _check_range("--k", args.k, 0, MAX_WSERIES_K)
    omega = _omega_from(args)
    if omega is None:
        raise ValueError("wseries needs --m/--n/--delta or --omega-json")
    poly = affine.w_coeff(A, args.i, args.k, omega)
    return _emit({"poly": str(poly)})


def cmd_omega(args):
    _check_range("--k", args.k, 0, MAX_OMEGA_K)
    value = _params_from(args).omega(args.k)
    # omega_k may have more digits than Python's int-to-str limit allows
    # (4300 by default); lift the limit for this one conversion only
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = str(value)
    finally:
        sys.set_int_max_str_digits(limit)
    return _emit({"omega": text})


def cmd_center_test(args):
    A = _parse_seq(args.seq)
    poly, _ = _poly_arg(args.poly, nvars_min=len(A))
    if poly.nvars > len(A):
        raise ValueError("polynomial mentions more strands than the object has")
    poly = poly.extend(len(A))
    return _emit({"central": cyclotomic.is_central(poly, A, _params_from(args))})


def cmd_center_basis(args):
    A = _parse_seq(args.seq)
    _check_range("--max-deg", args.max_deg, 0, MAX_CENTER_DEG)
    out = cyclotomic.center_basis(A, _params_from(args), args.max_deg)
    return _emit({"basis": [str(q) for q in out]})


def cmd_qcancel(args):
    try:
        i, j = (int(x) for x in args.pair.split(","))
    except ValueError:
        raise ValueError(f"bad pair {args.pair!r}; expected i,j")
    for v in (i, j):
        _check_range("--pair", v, 1, MAX_STRANDS)
    poly, _ = _poly_arg(args.poly, nvars_min=max(i, j))
    return _emit({"result": cyclotomic.q_cancellation(poly, i, j)})


def cmd_verify_relations(args):
    A = _parse_seq(args.seq)
    omega = _omega_from(args) or _GENERIC_OMEGA
    ok, empty, failed = [], [], []
    for rid in relation_ids():
        try:
            holds = affine.check_relation(A, rid, omega)
        except ValueError:
            empty.append(rid)
            continue
        (ok if holds else failed).append(rid)
    return _emit(
        {"all_ok": not failed, "empty": sorted(empty), "failed": sorted(failed), "ok": sorted(ok)}
    )


def cmd_verify_s8(args):
    A = _parse_seq(args.seq)
    _check_range("--max-deg", args.max_deg, 0, MAX_S8_DEG)
    if args.N is not None:
        ctx = glrep.GlContext.trivial(args.N)
    elif args.m is not None:
        ctx = glrep.GlContext.parabolic(args.m, args.n, args.delta)
    else:
        raise ValueError("verify-s8 needs --N (trivial) or --m/--n/--delta")
    report = glrep.verify_section8(ctx, A, max_deg=args.max_deg)
    return _emit(report)


def cmd_spectrum(args):
    A = _parse_seq(args.seq)
    seqs = young4.enumerate_Y(A, args.m, args.n, args.delta)
    tuples = sorted(tuple(young4.eigenvalue_tuple(s)) for s in seqs)
    return _emit(
        {"count": len(tuples), "tuples": [[str(v) for v in t] for t in tuples]}
    )


def cmd_young_enum(args):
    A = _parse_seq(args.seq)
    seqs = young4.enumerate_Y(A, args.m, args.n, args.delta)
    return _emit(
        {
            "count": len(seqs),
            "factors": [list(s.diagrams[-1].b) for s in seqs],
            "sequences": [s.records() for s in seqs],
        }
    )


def cmd_faithfulness(args):
    A = _parse_seq(args.seq)
    _check_range("--m + --n", args.m + args.n, 2, MAX_RANK_N)
    p = _params_from(args)
    d = len(cyclotomic.basis(A, p))
    rank = glrep.faithfulness_rank(A, p)
    out = _size_fields(A, p, d)
    if "dim" in out:
        out["faithful"] = rank == d
    return _emit({**out, "rank": rank})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wbcat", description="walled Brauer category engines, batch JSON"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("reduce", help="normal form of an element")
    s.add_argument("--element", required=True, help="element JSON or @file")
    s.add_argument("--affine", action="store_true", help="skip the quadratic quotient")
    _add_omega_source(s)
    s.set_defaults(fn=cmd_reduce)

    s = subs.add_parser("multiply", help="compose two elements (x stacked on y)")
    s.add_argument("--x", required=True)
    s.add_argument("--y", required=True)
    s.add_argument("--affine", action="store_true")
    _add_omega_source(s)
    s.set_defaults(fn=cmd_multiply)

    s = subs.add_parser("basis", help="cyclotomic monomial basis of End(A)")
    s.add_argument("--seq", required=True)
    _add_params(s)
    s.set_defaults(fn=cmd_basis)

    s = subs.add_parser("dim", help="basis size only")
    s.add_argument("--seq", required=True)
    _add_params(s)
    s.set_defaults(fn=cmd_dim)

    s = subs.add_parser("struct-consts", help="multiplication table as sparse triples")
    s.add_argument("--seq", required=True)
    _add_params(s)
    s.set_defaults(fn=cmd_struct_consts)

    s = subs.add_parser("wseries", help="contraction coefficient polynomial w_k")
    s.add_argument("--seq", required=True)
    s.add_argument("--i", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    _add_omega_source(s)
    s.set_defaults(fn=cmd_wseries)

    s = subs.add_parser("omega", help="omega_k for the parameter triple")
    s.add_argument("--k", type=int, required=True)
    _add_params(s)
    s.set_defaults(fn=cmd_omega)

    s = subs.add_parser("center-test", help="does a polynomial centralize End(A)?")
    s.add_argument("--poly", required=True)
    s.add_argument("--seq", required=True)
    _add_params(s)
    s.set_defaults(fn=cmd_center_test)

    s = subs.add_parser("center-basis", help="central polynomials up to a degree")
    s.add_argument("--seq", required=True)
    s.add_argument("--max-deg", type=int, required=True)
    _add_params(s)
    s.set_defaults(fn=cmd_center_basis)

    s = subs.add_parser("qcancel", help="Q-cancellation test for a variable pair")
    s.add_argument("--poly", required=True)
    s.add_argument("--pair", required=True, help="i,j")
    s.set_defaults(fn=cmd_qcancel)

    s = subs.add_parser("verify-relations", help="check all defining relations on A")
    s.add_argument("--seq", required=True)
    _add_omega_source(s)
    s.set_defaults(fn=cmd_verify_relations)

    s = subs.add_parser("verify-s8", help="operator identities in the representation")
    s.add_argument("--seq", required=True)
    s.add_argument("--N", type=int, default=None, help="trivial module dimension")
    s.add_argument("--max-deg", type=int, default=2)
    _add_params(s, required=False)
    s.set_defaults(fn=cmd_verify_s8)

    s = subs.add_parser("spectrum", help="generalized eigenvalue tuples of the walks")
    s.add_argument("--seq", required=True)
    _add_params(s)
    s.set_defaults(fn=cmd_spectrum)

    s = subs.add_parser("young-enum", help="all strip-diagram walks for A")
    s.add_argument("--seq", required=True)
    _add_params(s)
    s.set_defaults(fn=cmd_young_enum)

    s = subs.add_parser("faithfulness", help="representation rank vs basis size")
    s.add_argument("--seq", required=True)
    _add_params(s)
    s.set_defaults(fn=cmd_faithfulness)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (
        ValueError,
        KeyError,
        OSError,
        ArithmeticError,
        RecursionError,
        AssertionError,
    ) as exc:
        sys.stderr.write(json.dumps({"error": str(exc) or type(exc).__name__}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

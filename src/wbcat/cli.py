"""Batch command-line front end: each engine operation as a one-shot
subcommand with deterministic JSON on stdout, built from one table, COMMANDS.

Conventions
-----------
* exit code 0 on success, 1 on engine errors (bad input values, violated
  preconditions, arithmetic faults, failed internal checks, runaway
  recursion: a JSON {"error": ...} object on stderr, never a traceback),
  2 on usage errors (unknown flags/subcommands); a successful call writes
  nothing on stderr;
* every algebraic number is emitted as an exact rational string; counts,
  dimensions and indices are plain integers;
* JSON keys are sorted and separators fixed, so reruns are byte-identical;
* elements are read either inline as JSON or from a file via @path;
* input sizes are bounded before any work starts, with an engine error
  (exit 1) beyond the bound: an orientation sequence --seq has at most
  MAX_STRANDS = 8 entries, `omega --k` lies in 0..MAX_OMEGA_K = 10000
  (omega_k is a loop of k steps) and `wseries --k` in 0..MAX_WSERIES_K[i]
  at --i i, 64 down to 16 (w_k is a polynomial in i - 1 variables whose
  size grows with k; up to about 6 s per process). A polynomial's variables
  y_i and `qcancel --pair` lie in 1..MAX_STRANDS, its degree is at most
  exact.MAX_POLY_DEGREE = 4, and `center-basis --max-deg` lies in
  0..MAX_CENTER_DEG = 3 (every monomial of that degree on 8 strands, about
  0.15 s). `faithfulness` ranks the 2^k k! monomials on one tensor input
  per Levi orbit and, when that falls short of full rank, on all (m+n)^k
  inputs. So there --m + --n is at most MAX_RANK_N = 8, --seq has at most
  MAX_RANK_STRANDS = 4 entries, and (m+n)^k is at most MAX_RANK_INPUTS =
  512 unless the basis hypotheses hold, when one input per orbit is
  expected to give full rank. Per process: 3 strands at m + n = 8 take
  under 1 s, 4 strands at m + n = 4 up to about 7 s (at m + n = 5, 15-45 s),
  and (4,4,delta), the one 4-strand case inside the hypotheses, about
  2-4.5 s. `verify-s8` checks its identities on C(mn+d, d) N^k spanning
  vectors (N^k on the trivial module) at d = --max-deg in 0..MAX_S8_DEG =
  4; there N (--N, or --m + --n) lies in 1..MAX_S8_N = 16 and the vector
  count times k^3 is at most MAX_S8_WORK = 50,000 (up to about 2.5-3.5 s
  per process; 1,-1,1 at (3,3,0), 13 s, is refused); giving --N with
  --m/--n/--delta is an error, and so is an object on which no identity
  has an instance (one strand), which would check nothing; the same holds
  for `verify-relations`. `young-enum` and
  `spectrum` take --m and --n in 1..MAX_WALK_MN = 32 (8 strands at m = n =
  32 take about 2 s and print 10 MB). A --poly text has at most
  MAX_POLY_CHARS = 2000 characters (parsing costs up to about 0.15 ms per
  character). `reduce` and `multiply` take elements on at most MAX_STRANDS
  strands. Their dots, over every term and both operands, number at most
  MAX_DOTS_ONE_EACH_WAY = 800 on (1), (-1), (1,-1) and (-1,1), and
  otherwise at most MAX_DOTS[k] on k strands (100 on two down to 4 on
  eight), since there a high dot stack costs far more (docs/decisions.md).
  Per process: 400 + 400 dots on (1,-1) take about 5 s at (2,2,0) and 10 s
  at (2,3,5); 100 dots on strand 2 of (1,1), the costliest placement
  measured within MAX_DOTS, about 3 s and 8 s. The commands that enumerate
  the basis grow like 2^k k! in the number k of strands;
* `reduce`, `multiply`, `wseries` and `verify-relations` take omega from
  --m/--n/--delta or from --omega-json, never both;
* an exact answer outside the hypotheses that certify it says so once,
  with "certified": false on stdout: `basis`, `dim`, `struct-consts` and
  `faithfulness` outside the basis hypotheses (cyclotomic.basis_hypotheses),
  where a size is "spanning", not "dim", and `young-enum` and `spectrum`
  on a strip narrower than the walk (m or n < r + t);
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
from .relations import instances, relation_ids

MAX_STRANDS = 8
MAX_OMEGA_K = 10_000
# by --i; on the costliest prefix, the alternating one, the largest admitted
# k takes about 1.5-3 s per process at (2,2,0) and 4-6 s where omega is not
# integral, as at (3,2,1) or (8,1,0)
MAX_WSERIES_K = {1: 64, 2: 64, 3: 32, 4: 24, 5: 20, 6: 18, 7: 16}
MAX_CENTER_DEG = 3
MAX_RANK_N = 8
MAX_RANK_STRANDS = 4
MAX_RANK_INPUTS = 512
MAX_S8_DEG = 4
MAX_S8_N = 16
MAX_S8_WORK = 50_000
MAX_WALK_MN = 32
MAX_POLY_CHARS = 2000
MAX_DOTS = {2: 100, 3: 16, 4: 10, 5: 7, 6: 5, 7: 4, 8: 4}  # by strand count
MAX_DOTS_ONE_EACH_WAY = 800  # on (1), (-1), (1,-1) and (-1,1)

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
    if len(text) > MAX_POLY_CHARS:
        raise ValueError(f"polynomial text longer than {MAX_POLY_CHARS} characters")
    indices = [int(s[1:]) for s in re.findall(r"y\d+", text)]
    for i in indices:
        _check_range("a variable index", i, 1, MAX_STRANDS)
    nvars = max(indices + [nvars_min])
    return poly_parse(text, nvars), nvars


def _mnd(args):
    if None in (args.m, args.n, args.delta):
        raise ValueError("--m, --n and --delta must be given together")
    return args.m, args.n, args.delta


def _params_from(args):
    return cyclotomic.make_params(*_mnd(args))


def _mnd_given(args):
    """Whether any of --m/--n/--delta was given; _mnd then needs all three."""
    return (args.m, args.n, args.delta) != (None, None, None)


def _omega_from(args, default=None):
    """The omega values of --omega-json or of --m/--n/--delta, never both;
    default when neither is given, an error when there is no default."""
    if args.omega_json is not None:
        if _mnd_given(args):
            raise ValueError(f"{args.command} takes --omega-json or --m/--n/--delta, not both")
        return OmegaSpec.from_json(_load_json_arg(args.omega_json))
    if _mnd_given(args):
        return _params_from(args).omega
    if default is None:
        raise ValueError(f"{args.command} needs --m/--n/--delta or --omega-json")
    return default


def _elements(*texts):
    """The elements of JSON arguments, refused beyond MAX_STRANDS strands or
    beyond their dot bound, counted over every term of them all."""
    els = [element_from_json(_load_json_arg(text)) for text in texts]
    objects = [obj for el in els for obj in (el.bottom, el.top)]
    k = max(map(len, objects))
    if k > MAX_STRANDS:
        raise ValueError(f"element has more than {MAX_STRANDS} strands")
    one_each_way = all(len(set(obj)) == len(obj) for obj in objects)
    bound = MAX_DOTS_ONE_EACH_WAY if one_each_way else MAX_DOTS[k]
    if sum(m.dots() for el in els for m in el.terms) > bound:
        raise ValueError(f"more than {bound} dots on {k} strands")
    return els


def cmd_reduce(args):
    (el,) = _elements(args.element)
    omega = _omega_from(args)
    if args.affine or not _mnd_given(args):
        out = affine.reduce(el, omega)
    else:
        out = cyclotomic.cyclo_reduce(el, _params_from(args))
    return _emit(element_to_json(out))


def cmd_multiply(args):
    x, y = _elements(args.x, args.y)
    out = affine.multiply(x, y, _omega_from(args))
    if _mnd_given(args) and not args.affine:
        out = cyclotomic.cyclo_reduce(out, _params_from(args))
    return _emit(element_to_json(out))


def _certified(holds):
    """{} when the hypotheses behind an answer hold, else {"certified": False}."""
    return {} if holds else {"certified": False}


def cmd_basis(args):
    A, p = args.seq, _params_from(args)
    monos = cyclotomic.basis(A, p)
    return _emit({**_certified(cyclotomic.basis_hypotheses(A, p)), "count": len(monos),
                  "monomials": [monomial_to_json(m) for m in monos]})


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
    A = args.seq
    return _emit(_size_fields(A, _params_from(args), _monomial_count(A)))


def cmd_struct_consts(args):
    A = args.seq
    p = _params_from(args)
    table = cyclotomic.structure_constants(A, p)
    triples = [[i, j, k, str(c)] for (i, j, k), c in sorted(table.items())]
    return _emit({**_size_fields(A, p, _monomial_count(A)), "triples": triples})


def cmd_wseries(args):
    if args.i in MAX_WSERIES_K:  # w_coeff refuses any other --i before any work
        _check_range(f"--k at --i {args.i}", args.k, 0, MAX_WSERIES_K[args.i])
    poly = affine.w_coeff(args.seq, args.i, args.k, _omega_from(args))
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
    A = args.seq
    poly, _ = _poly_arg(args.poly, nvars_min=len(A))
    if poly.nvars > len(A):
        raise ValueError("polynomial mentions more strands than the object has")
    poly = poly.extend(len(A))
    return _emit({"central": cyclotomic.is_central(poly, A, _params_from(args))})


def cmd_center_basis(args):
    _check_range("--max-deg", args.max_deg, 0, MAX_CENTER_DEG)
    out = cyclotomic.center_basis(args.seq, _params_from(args), args.max_deg)
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
    A = args.seq
    omega = _omega_from(args, _GENERIC_OMEGA)
    ok, empty, failed = [], [], []
    for rid in relation_ids():
        insts = instances(rid, A)
        if not insts:
            empty.append(rid)
            continue
        (ok if affine.check_instances(A, insts, omega) else failed).append(rid)
    if not ok and not failed:
        raise ValueError(f"no relation has an instance on {list(A)}")
    return _emit(
        {"all_ok": not failed, "empty": sorted(empty), "failed": sorted(failed), "ok": sorted(ok)}
    )


def cmd_verify_s8(args):
    A = args.seq
    _check_range("--max-deg", args.max_deg, 0, MAX_S8_DEG)
    if args.N is not None:
        if _mnd_given(args):
            raise ValueError("verify-s8 takes --N (trivial) or --m/--n/--delta, not both")
        ctx = glrep.GlContext.trivial(args.N)
    elif _mnd_given(args):
        ctx = glrep.GlContext.parabolic(*_mnd(args))
    else:
        raise ValueError("verify-s8 needs --N (trivial) or --m/--n/--delta")
    _check_range("--N (or --m + --n)", ctx.N, 1, MAX_S8_N)
    # len(glrep.module_monomials(ctx, max_deg)) PBW monomials in m*n symbols
    # times N^k slot tuples, weighted by k^3 for the identities per vector
    pbw = math.comb(ctx.m * ctx.n + args.max_deg, args.max_deg)
    if pbw * ctx.N ** len(A) * len(A) ** 3 > MAX_S8_WORK:
        raise ValueError(f"spanning set times strands^3 above {MAX_S8_WORK}")
    report = glrep.verify_section8(ctx, A, max_deg=args.max_deg)
    if not any(res["instances"] for res in report.values()):
        raise ValueError(f"no operator identity has an instance on {list(A)}")
    return _emit(report)


def _walks(args):
    """The walks for args.seq, and their certification fields: a strip
    narrower than the walk (m or n < r + t) truncates boxes."""
    for name, value in (("--m", args.m), ("--n", args.n)):
        _check_range(name, value, 1, MAX_WALK_MN)
    seqs = young4.enumerate_Y(args.seq, args.m, args.n, args.delta)
    return seqs, _certified(min(args.m, args.n) >= len(args.seq))


def cmd_spectrum(args):
    seqs, fields = _walks(args)
    tuples = sorted(tuple(young4.eigenvalue_tuple(s)) for s in seqs)
    return _emit(
        {**fields, "count": len(tuples), "tuples": [[str(v) for v in t] for t in tuples]}
    )


def cmd_young_enum(args):
    seqs, fields = _walks(args)
    return _emit(
        {
            **fields,
            "count": len(seqs),
            "factors": [list(s.diagrams[-1].b) for s in seqs],
            "sequences": [s.records() for s in seqs],
        }
    )


def cmd_faithfulness(args):
    A = args.seq
    _check_range("--m + --n", args.m + args.n, 2, MAX_RANK_N)
    if len(A) > MAX_RANK_STRANDS:
        raise ValueError(f"faithfulness takes at most {MAX_RANK_STRANDS} strands")
    p = _params_from(args)
    # the rank may visit every one of the (m+n)^k inputs unless the basis
    # hypotheses hold, when one input per Levi orbit is expected to do
    if (args.m + args.n) ** len(A) > MAX_RANK_INPUTS and not cyclotomic.basis_hypotheses(A, p):
        raise ValueError(
            f"(m+n)^k above {MAX_RANK_INPUTS} tensor inputs outside the basis hypotheses"
        )
    d = _monomial_count(A)
    rank = glrep.faithfulness_rank(A, p)
    out = _size_fields(A, p, d)
    if "dim" in out:
        out["faithful"] = rank == d
    return _emit({**out, "rank": rank})


_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": int, "required": True}
_SEQ = [("--seq", _REQUIRED)]
_MND = [(flag, _REQUIRED_INT) for flag in ("--m", "--n", "--delta")]
_MND_OPTIONAL = [(flag, {"type": int}) for flag in ("--m", "--n", "--delta")]
_OMEGA_SOURCE = _MND_OPTIONAL + [
    ("--omega-json", {"help": "omega values as OmegaSpec JSON (alternative to --m/--n/--delta)"})
]

# subcommand -> (help, [(flag, add_argument keywords)]), in --help order;
# "x-y" runs cmd_x_y, looked up per call, on args.seq parsed by _parse_seq
COMMANDS = {
    "reduce": ("normal form of an element", [
        ("--element", {"required": True, "help": "element JSON or @file"}),
        ("--affine", {"action": "store_true", "help": "skip the quadratic quotient"}),
        *_OMEGA_SOURCE]),
    "multiply": ("compose two elements (x stacked on y)", [
        ("--x", _REQUIRED), ("--y", _REQUIRED), ("--affine", {"action": "store_true"}),
        *_OMEGA_SOURCE]),
    "basis": ("cyclotomic monomial basis of End(A)", _SEQ + _MND),
    "dim": ("basis size only", _SEQ + _MND),
    "struct-consts": ("multiplication table as sparse triples", _SEQ + _MND),
    "wseries": ("contraction coefficient polynomial w_k", [
        *_SEQ, ("--i", _REQUIRED_INT), ("--k", _REQUIRED_INT), *_OMEGA_SOURCE]),
    "omega": ("omega_k for the parameter triple", [("--k", _REQUIRED_INT), *_MND]),
    "center-test": ("does a polynomial centralize End(A)?", [("--poly", _REQUIRED), *_SEQ, *_MND]),
    "center-basis": ("central polynomials up to a degree", [
        *_SEQ, ("--max-deg", _REQUIRED_INT), *_MND]),
    "qcancel": ("Q-cancellation test for a variable pair", [
        ("--poly", _REQUIRED), ("--pair", {"required": True, "help": "i,j"})]),
    "verify-relations": ("check all defining relations on A", _SEQ + _OMEGA_SOURCE),
    "verify-s8": ("operator identities in the representation", [
        *_SEQ, ("--N", {"type": int, "help": "trivial module dimension"}),
        ("--max-deg", {"type": int, "default": 2}), *_MND_OPTIONAL]),
    "spectrum": ("generalized eigenvalue tuples of the walks", _SEQ + _MND),
    "young-enum": ("all strip-diagram walks for A", _SEQ + _MND),
    "faithfulness": ("representation rank vs basis size", _SEQ + _MND),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every subcommand. Given the name of one (main passes
    argv[0]), only that one gets its flags, which is all a parse of such an
    argv reads; every subcommand is still registered, so the usage line and
    --help are unchanged. Any other value builds every subcommand's flags."""
    parser = argparse.ArgumentParser(
        prog="wbcat", description="walled Brauer category engines, batch JSON"
    )
    subs = parser.add_subparsers(dest="command", required=True)
    chosen = (command,) if command in COMMANDS else COMMANDS
    for name, (help_text, flags) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        if name in chosen:
            for flag, keywords in flags:
                sub.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        if "seq" in args:
            args.seq = _parse_seq(args.seq)
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ValueError, KeyError, OSError, ArithmeticError, RecursionError, AssertionError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc) or type(exc).__name__}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: jobs that call wbcat, and the checks on their answers.

Every workload is a class with

* `__init__(size)`: builds the parameters and inputs (timed as set-up);
* `jobs(rng)`: a list of `(name, fn)`; `fn()` runs one job, checks its
  answer and raises if the answer is wrong;
* `checks(rng)`: a list of `(name, fn)`; `fn()` returns True when a
  cross-check passes. Checks run after all jobs, outside the timed region.

A call is what a user waits for: one CLI call (cli_mix), one rank
(faithful3), one relation instance checked on a set of vectors
(relcheck3), one product of two basis elements (struct3). A workload whose
calls are finer than its jobs times each with `self.clock` (which
worker.py sets to a clock that skips the host-speed samples) and appends
the seconds to `self.calls`.

The set of jobs is fixed by the size. The seed picks the samples that the
struct3 checks use and the order of the cli_mix calls; it never changes how
much work a session does.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from wbcat import affine, cyclotomic, glrep, relations
from wbcat.diagrams import DecoratedElement, identity_monomial

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference.json"
REFERENCE = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Workload:
    clock = None
    calls = None  # per-call seconds, when calls are finer than jobs

    def checks(self, rng):
        return []


# ---------------------------------------------------------------------------
# struct3: rows of the level-two structure-constant table (rewriting path).


class Struct3(Workload):
    SIZES = {
        # objects, (m, n, delta), rows of each table (every row when None)
        "full": (((1, -1, 1), (1, 1, -1)), (3, 3, 0), range(0, 48, 5)),
        "tiny": (((1, -1), (-1, 1)), (2, 2, 0), None),
    }
    ASSOC_SAMPLES = 4
    ROUTE_SAMPLES = 3
    ROUTE_VECTORS = 4

    def __init__(self, size):
        self.size = size
        self.calls = []
        objects, mnd, rows = self.SIZES[size]
        self.p = cyclotomic.make_params(*mnd)
        self.ctx = glrep.GlContext.parabolic(*mnd)
        self.tables = {}
        for A in objects:
            bas = cyclotomic.basis(A, self.p)
            unit = bas.index(identity_monomial(A))
            self.tables[A] = {
                "basis": bas,
                "elements": [DecoratedElement.from_monomial(m) for m in bas],
                "index": {m: k for k, m in enumerate(bas)},
                "unit": unit,
                "rows": sorted(set(rows or range(len(bas))) | {unit}),
            }

    def product(self, A, x, y):
        """Normal form of x . y in the level-two quotient."""
        return cyclotomic.cyclo_reduce(affine.multiply(x, y, self.p.omega), self.p)

    def row_digest(self, A, i):
        """Digest of row i of the table of End(A), checking the unit on the way;
        each product's time goes to self.calls."""
        t = self.tables[A]
        els, index, unit = t["elements"], t["index"], t["unit"]
        out = []
        for j, bj in enumerate(els):
            t0 = self.clock()
            prod = self.product(A, els[i], bj)
            self.calls.append(self.clock() - t0)
            # the identity is a two-sided unit
            if j == unit and prod != els[i]:
                raise AssertionError(f"b{i} . 1 != b{i}")
            if i == unit and prod != bj:
                raise AssertionError(f"1 . b{j} != b{j}")
            out.append((j, sorted((index[m], str(c)) for m, c in prod.terms.items())))
        return digest(repr(out))

    def _row(self, A, i):
        got = self.row_digest(A, i)
        want = REFERENCE["struct3"][self.size][str(A)][str(i)]
        if got != want:
            raise AssertionError(f"row {i} of End{A}: digest {got} != {want}")

    def jobs(self, rng):
        return [
            (f"End{A}:row{i}", lambda A=A, i=i: self._row(A, i))
            for A, t in self.tables.items()
            for i in t["rows"]
        ]

    def _assoc(self, A, i, j, k):
        e = self.tables[A]["elements"]
        left = self.product(A, self.product(A, e[i], e[j]), e[k])
        right = self.product(A, e[i], self.product(A, e[j], e[k]))
        return left == right

    def _route(self, A, i, j, slots):
        """The product acts on the gl_N module as the two factors do."""
        e = self.tables[A]["elements"]
        prod = self.product(A, e[i], e[j])
        for beta in slots:
            v = glrep.ModuleVector.basis_vector(self.ctx, A, beta)
            if glrep.represent(prod, v) != glrep.represent(e[i], glrep.represent(e[j], v)):
                return False
        return True

    def checks(self, rng):
        out = []
        for A, t in self.tables.items():
            d = len(t["basis"])
            for _ in range(self.ASSOC_SAMPLES):
                i, j, k = (rng.randrange(d) for _ in range(3))
                out.append((f"assoc End{A} ({i},{j},{k})",
                            lambda A=A, i=i, j=j, k=k: self._assoc(A, i, j, k)))
            for _ in range(self.ROUTE_SAMPLES):
                i, j = rng.randrange(d), rng.randrange(d)
                slots = [tuple(rng.randrange(1, self.ctx.N + 1) for _ in A)
                         for _ in range(self.ROUTE_VECTORS)]
                out.append((f"glrep End{A} b{i}.b{j}",
                            lambda A=A, i=i, j=j, s=slots: self._route(A, i, j, s)))
        return out


# ---------------------------------------------------------------------------
# faithful3: rank of the representation matrix (sparse elimination).


class Faithful3(Workload):
    SIZES = {
        "full": ((1, -1, -1), (3, 3, 0)),
        "tiny": ((1, -1), (3, 3, 1)),
    }

    def __init__(self, size):
        A, mnd = self.SIZES[size]
        self.A = A
        self.p = cyclotomic.make_params(*mnd)
        self.dim = len(cyclotomic.basis(A, self.p))

    def _rank(self):
        rank = glrep.faithfulness_rank(self.A, self.p)
        if rank != self.dim:
            raise AssertionError(f"rank {rank} != basis size {self.dim}")

    def jobs(self, rng):
        return [(f"faithfulness End{self.A}", self._rank)]


# ---------------------------------------------------------------------------
# relcheck3: every defining relation, applied in the gl_N module.


class Relcheck3(Workload):
    """Per object, a first job lists the relation instances and checks the
    y-free ones on the slot-only vectors (non-y generators act on the tensor
    slots alone); then one job per module monomial mu checks every instance
    with a dot on the vectors x^mu z (x) v_slots. A call is one instance
    checked on one such set of vectors."""

    SIZES = {
        # objects, (m, n, delta), degree of the module part of the vectors
        "full": (((1, 1, -1), (-1, -1, -1)), (2, 2, 0), 2),
        "tiny": (((1, -1), (-1, 1)), (2, 2, 0), 1),
    }

    def __init__(self, size):
        objects, mnd, deg = self.SIZES[size]
        self.ctx = glrep.GlContext.parabolic(*mnd)
        self.omega = cyclotomic.make_params(*mnd).omega
        self.blocks = {}  # A -> {mu: spanning vectors with module part x^mu}
        for A in objects:
            blocks = self.blocks[A] = {}
            for v in glrep.spanning_vectors(self.ctx, A, deg):
                ((mu, _),) = v.terms
                blocks.setdefault(mu, []).append(v)
        self.dotted = {}  # A -> instances with a dot, listed by the first job
        self.calls = []

    def _holds(self, lhs, rhs, vecs):
        t0 = self.clock()
        for v in vecs:
            left = glrep.apply_word(lhs, v)
            right = None
            for coeff, word in rhs:
                part = glrep.apply_word(word, v).scale(relations.resolve_coeff(coeff, self.omega))
                right = part if right is None else right + part
            if left != right:
                raise AssertionError(f"{lhs} fails on {v!r}")
        self.calls.append(self.clock() - t0)

    def _dot_free(self, A):
        dot_free, self.dotted[A] = [], []
        for _, (lhs, rhs) in relations.all_instances(A):
            words = [lhs] + [w for _, w in rhs]
            dotted = any(t[0] == "y" for w in words for t in w)
            (self.dotted[A] if dotted else dot_free).append((lhs, rhs))
        for lhs, rhs in dot_free:
            self._holds(lhs, rhs, self.blocks[A][()])

    def _block(self, A, mu):
        for lhs, rhs in self.dotted[A]:
            self._holds(lhs, rhs, self.blocks[A][mu])

    def jobs(self, rng):
        jobs = []
        for A, blocks in self.blocks.items():
            jobs.append((f"End{A} y-free", lambda A=A: self._dot_free(A)))
            jobs += [(f"End{A} x^{mu}", lambda A=A, mu=mu: self._block(A, mu))
                     for mu in blocks]
        return jobs


# ---------------------------------------------------------------------------
# cli_mix: one-shot command-line calls, each in a fresh interpreter.

README_ELEMENT = json.dumps({
    "bottom": [1, -1], "top": [1, -1],
    "terms": [{"coeff": "1", "monomial": {
        "arcs": [["b1", "t1"], ["b2", "t2"]], "bottom": [1, -1], "top": [1, -1],
        "gamma": [2, 0], "eta": [0, 0]}}],
})
P220 = ["--m", "2", "--n", "2", "--delta", "0"]
CALLS = {
    "dim": ["dim", "--seq", "1,-1"] + P220,
    "omega5": ["omega", "--k", "5", "--m", "1", "--n", "1", "--delta", "0"],
    "qcancel": ["qcancel", "--poly", "y1+y2", "--pair", "1,2"],
    "reduce": ["reduce", "--element", README_ELEMENT] + P220,
    "verify-relations": ["verify-relations", "--seq", "1,-1"] + P220,
    "young-enum": ["young-enum", "--seq", "1,-1"] + P220,
    "spectrum": ["spectrum", "--seq", "1,-1"] + P220,
    "struct-consts": ["struct-consts", "--seq", "1,-1"] + P220,
    "center-basis": ["center-basis", "--seq", "1,-1", "--max-deg", "3"] + P220,
    "faithfulness": ["faithfulness", "--seq", "1,-1"] + P220,
    "verify-s8": ["verify-s8", "--seq", "1,-1"] + P220,
    "wseries": ["wseries", "--seq", "1,1,-1", "--i", "2", "--k", "6"] + P220,
    "dim6": ["dim", "--seq", "1,1,1,-1,-1,-1", "--m", "6", "--n", "6", "--delta", "0"],
    "young-enum6": ["young-enum", "--seq", "1,1,1,-1,-1,-1", "--m", "6", "--n", "6",
                    "--delta", "0"],
    "usage-error": ["dim", "--seq", "1,-1"],
}
# `omega --k 5000` raises RecursionError at this version. It is run once per
# benchmark run as a known-defect probe, outside the timed and counted mix.
KNOWN_DEFECT = ["omega", "--k", "5000", "--m", "1", "--n", "1", "--delta", "0"]


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_cli(argv, traced=False, timeout=120):
    """One CLI call in a fresh interpreter: (exit code, stdout, stderr)."""
    if traced:
        cmd = [sys.executable, str(HERE / "cli_call.py")] + argv
    else:
        cmd = [sys.executable, "-m", "wbcat.cli"] + argv
    proc = subprocess.run(cmd, capture_output=True, env=cli_env(), cwd=ROOT,
                          timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


class CliMix(Workload):
    SIZES = {
        "full": tuple(CALLS),
        "tiny": ("dim", "omega5", "qcancel", "center-basis", "wseries", "young-enum",
                 "usage-error"),
    }

    def __init__(self, size):
        self.names = self.SIZES[size]
        self.traced = False
        self.trace_records = []  # per-call trace snapshots when traced
        self.emit_bytes = 0

    def _call(self, name):
        code, out, err = run_cli(CALLS[name], traced=self.traced)
        self.emit_bytes += len(out)
        if self.traced:
            marker = b"PERFBENCH_TRACE "
            for line in err.splitlines():
                if line.startswith(marker):
                    self.trace_records.append(json.loads(line[len(marker):]))
        want = REFERENCE["cli_mix"][name]
        got = {"exit": code, "stdout": digest(out.decode())}
        if got != want:
            raise AssertionError(f"{name}: {got} != recorded {want}")

    def jobs(self, rng):
        jobs = [(name, lambda n=name: self._call(n)) for name in self.names]
        rng.shuffle(jobs)
        return jobs


def known_defect_probe():
    """Run the known-defect call and compare it with the closed form."""
    try:
        code, out, err = run_cli(KNOWN_DEFECT, timeout=30)
    except subprocess.TimeoutExpired:
        return {"call": " ".join(KNOWN_DEFECT), "ok": False, "exit": None,
                "error": "no answer within 30 s"}
    want = REFERENCE["known_defect"]["omega"]  # from cyclotomic.w1_closed_form
    ok = code == 0 and json.loads(out).get("omega") == want
    last = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
    return {"call": " ".join(KNOWN_DEFECT), "ok": ok, "exit": code,
            "error": "" if ok else last[0][:200]}


WORKLOADS = {
    "struct3": Struct3,
    "faithful3": Faithful3,
    "relcheck3": Relcheck3,
    "cli_mix": CliMix,
}

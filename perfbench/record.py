"""Record the reference answers that the benchmark checks against.

    PYTHONPATH=src python3 perfbench/record.py

Writes perfbench/reference.json: a digest of every row of each struct3
table, taken from `cyclotomic.structure_constants`; the exit code and stdout
digest of every cli_mix call; and the closed-form value that the
known-defect call should print. Run it only on a commit whose answers are
trusted; the committed file was recorded on the commit that introduced the
benchmark.
"""

import json
import sys
import warnings
from pathlib import Path

warnings.simplefilter("ignore")
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from wbcat import cyclotomic  # noqa: E402


def table_digests(A, p):
    """Row digests of the public structure-constant table, in the format
    that Struct3.row_digest produces."""
    table = cyclotomic.structure_constants(A, p)
    d = len(cyclotomic.basis(A, p))
    rows = [[[] for _ in range(d)] for _ in range(d)]
    for (i, j, k), c in table.items():
        rows[i][j].append((k, str(c)))
    return {
        str(i): workloads.digest(repr([(j, sorted(rows[i][j])) for j in range(d)]))
        for i in range(d)
    }


def main():
    ref = {"struct3": {}, "cli_mix": {}}
    for size, (objects, mnd, _) in workloads.Struct3.SIZES.items():
        p = cyclotomic.make_params(*mnd)
        ref["struct3"][size] = {str(A): table_digests(A, p) for A in objects}
    for name, argv in workloads.CALLS.items():
        code, out, _ = workloads.run_cli(argv)
        ref["cli_mix"][name] = {"exit": code, "stdout": workloads.digest(out.decode())}
    omega = cyclotomic.w1_closed_form(cyclotomic.make_params(1, 1, 0), 5000)
    ref["known_defect"] = {"omega": str(omega)}
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

"""`python -m wbcat.cli ARGS` with the layer trace installed.

Stdout and the exit code are those of the plain call. After the call the
trace snapshot goes to stderr as one last line, `PERFBENCH_TRACE {json}`,
with the import time of `wbcat.cli` and the listed functions the package
no longer defines.
"""

import json
import sys
import time

t0 = time.perf_counter()
import wbcat.cli  # noqa: E402

import_s = time.perf_counter() - t0

from layertrace import Tracer  # noqa: E402

tracer = Tracer().install()
code = 1
try:
    code = wbcat.cli.main(sys.argv[1:])
except SystemExit as exc:  # argparse usage errors
    code = exc.code
finally:
    sys.stdout.flush()
    snap = tracer.snapshot()
    snap["import_s"] = import_s
    snap["absent"] = tracer.absent
    sys.stderr.write("\nPERFBENCH_TRACE " + json.dumps(snap) + "\n")
sys.exit(code)

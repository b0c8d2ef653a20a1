"""Smoke test of the benchmark itself: every workload at its tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each run passes its own correctness checks and emits exactly
the metrics that BENCHMARK.json declares, with their units, and that the
trace rebinds every alias of a wrapped function.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_declared_metrics(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("struct3", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_trace_rebinds_every_alias():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import layertrace
    import wbcat.cli  # noqa: F401  (loads every module)

    modules = [m for n, m in sys.modules.items() if n.startswith("wbcat")]
    originals = {}
    for mod_name, fn_name, _ in layertrace.SPANS + layertrace.COUNTS:
        if "." in fn_name:  # methods are replaced on their class
            continue
        fn = getattr(sys.modules["wbcat." + mod_name], fn_name)
        originals[id(fn)] = f"{mod_name}.{fn_name}"
    aliases = [(m.__name__, attr) for m in modules for attr, v in vars(m).items()
               if id(v) in originals and not attr.startswith("__")]
    assert ("wbcat.cyclotomic", "affine_reduce") in aliases  # an aliased import
    layertrace.Tracer().install()
    left = [(m.__name__, attr) for m in modules for attr, v in vars(m).items()
            if id(v) in originals]
    assert left == []

"""The span names the benchmark's per-layer pass counts must name functions.

A name that resolves to nothing counts 0 with only a note on stderr, so a
rename in `src/nemosim` would zero a per-layer count unseen.  This reads the
names `layer_metrics` in `bench/run_bench.py` passes to `calls(...)`.
"""

import ast
import importlib
import inspect
from pathlib import Path

RUN_BENCH = Path(__file__).resolve().parents[1] / "bench" / "run_bench.py"

# The one name the benchmark still asks for that no function has.
RETIRED = {"fsm.reg_step"}


def counted_span_names() -> list[str]:
    tree = ast.parse(RUN_BENCH.read_text(encoding="utf-8"))
    layer_metrics = next(node for node in ast.walk(tree)
                         if isinstance(node, ast.FunctionDef) and node.name == "layer_metrics")
    return [arg.value for node in ast.walk(layer_metrics)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "calls"
            for arg in node.args if isinstance(arg, ast.Constant)]


def resolve(name: str):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"nemosim.{module}")
    for attr in attrs:
        obj = getattr(obj, attr, None)
    return obj


def test_every_counted_span_name_is_a_function():
    names = counted_span_names()
    assert len(names) >= 15 and RETIRED <= set(names)
    unresolved = [name for name in names
                  if name not in RETIRED and not inspect.isfunction(resolve(name))]
    assert not unresolved

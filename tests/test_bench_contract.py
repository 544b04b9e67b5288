"""Every function the traced benchmark wraps exists in the package.

``bench/layers.py`` names the spans it times as ``(module, attribute)``
pairs in ``SPANS`` and replaces each one with ``setattr`` during a traced
run, so a function deleted or renamed in ``src/`` breaks every traced run.
The names are read with ``ast``, without importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _spans():
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"), filename=str(LAYERS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            return {
                key.value: (module.id, attr.value)
                for key, (module, attr) in zip(
                    node.value.keys, (v.elts for v in node.value.values)
                )
            }
    raise AssertionError("bench/layers.py defines no SPANS")


def test_every_span_is_a_callable_of_the_package():
    spans = _spans()
    assert len(spans) >= 18
    missing = sorted(
        name
        for name, (module, attr) in spans.items()
        if not callable(getattr(importlib.import_module(f"qsmooth.{module}"), attr, None))
    )
    assert not missing, f"spans with no function in qsmooth: {missing}"

"""The benchmark's traced functions must exist, each as its own object.

perfbench/spans.py rebinds every (module, function) in its TARGETS list; a
target a refactor deleted is reported absent only by the benchmark smoke test,
and one aliased to another target would be wrapped twice. This reads TARGETS
as it stands and checks both here.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_every_traced_target_resolves_to_a_distinct_callable():
    targets = _targets()
    assert targets
    found = {}
    for module, name, _span in targets:
        fn = getattr(importlib.import_module(module), name, None)
        assert callable(fn), f"{module}.{name} is not a callable"
        found[f"{module}.{name}"] = fn
    ids = {}
    for label, fn in found.items():
        assert id(fn) not in ids, f"{label} is the same object as {ids[id(fn)]}"
        ids[id(fn)] = label

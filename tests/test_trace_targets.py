"""The benchmark's traced run rebinds module attributes of the program; a
renamed or deleted attribute would make every `--trace 1` run fail."""

import importlib
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_traced_attribute_exists():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCHMARKS))
    targets = workloads.trace_targets()
    assert targets
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, *_ in targets
        if not hasattr(module, attr)
    ]
    assert missing == []

"""The benchmark's traced run patches program names by (module, attribute).

bench/tracing.py wraps each function at the name its caller resolves, with
getattr; a name that moves or disappears would crash `bench/run.py --trace 1`
rather than fail a test, so every entry is checked to resolve here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_wraps():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.WRAPS


def test_every_traced_name_resolves():
    wraps = load_wraps()
    assert wraps
    for module, attr, span in wraps:
        target = getattr(importlib.import_module(f"mfnear.{module}"), attr, None)
        assert callable(target), f"mfnear.{module}.{attr} (span {span}) does not resolve"

"""The benchmark's tracer wraps ncring functions by module attribute name.

perfbench/tracer.py lists those names in WRAPPED; a refactor that drops one
would break traced benchmark runs without any other test noticing.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_wrapped_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    for module_name, attr in tracer.WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr)), f"{module_name}.{attr}"

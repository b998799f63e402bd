"""Every engine name the benchmark's tracer wraps still exists.

``perfbench/tracing.py`` wraps engine functions and methods by name from
outside the engine, so a rename or deletion there would otherwise fail only
under the benchmark's own tests.  The tracer is loaded from its file and
nothing is installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

_spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

TRACED = [(module, path) for module, path, _ in
          tracing.SPANNED + tracing.COUNTED]


@pytest.mark.parametrize("module,path", TRACED,
                         ids=[f"{m}.{p}" for m, p in TRACED])
def test_traced_name_resolves_to_a_callable(module, path):
    owner = importlib.import_module(f"malgrange.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)

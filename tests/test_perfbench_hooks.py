"""Every name the benchmark tracer hooks still exists in crystalforge.

``perfbench/tracing.py`` patches functions by (module, attribute path) and
reports a per-layer metric as absent when its target is gone, so a rename
would silently drop a metric.  The tracer is loaded by path, not imported
as a package, and nothing is patched.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("mod_name, attr", [(hook[0], hook[1]) for hook in tracing.HOOKS])
def test_hook_target_resolves(mod_name, attr):
    owner = importlib.import_module(f"crystalforge.{mod_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


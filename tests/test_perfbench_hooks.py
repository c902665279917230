"""Every name the benchmark tracer hooks still exists in crystalforge.

``perfbench/tracing.py`` patches functions by (module, attribute path) and
reports a per-layer metric as absent when its target is gone, so a rename
would silently drop a metric.  The tracer is loaded by path, not imported
as a package, and nothing is patched by it.  The target of the support
span is also checked to be the loop BA runs, so that span does not read 0.
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



def test_the_support_span_times_ba_s_support_loop(monkeypatch):
    (hook,) = [hook for hook in tracing.HOOKS if hook[2] == "relaxation_engine.support"]
    owner = importlib.import_module(f"crystalforge.{hook[0]}")
    *path, name = hook[1].split(".")
    for part in path:
        owner = getattr(owner, part)
    real, calls = getattr(owner, name), []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counting)
    from crystalforge.digraph_lab import clique
    from crystalforge.relaxation_engine import decide_ba

    # K4 -> K3 at k = 2 has a fractional phase-1 witness, so BA runs its
    # support loop once before the integer step
    assert decide_ba(clique(4), clique(3), 2) is True
    assert len(calls) == 1

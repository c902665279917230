"""Span tracer attached to crystalforge from outside, by patching names.

Nothing under ``src/`` is edited.  ``install`` replaces each hooked
function with a wrapper wherever a crystalforge module binds it: the
defining module and every module that took it with ``from ... import``
(so ``crystal_mill.project`` and ``certificate_desk.integer_feasible`` are
hooked too).  Methods of ``_Simplex`` are hooked through the class.

A wrapper opens a span (name, start, end, parent span, operation id) on
entry and closes it on exit.  A hook that is re-entered while already
active (the recursion of ``_realise`` and of the miner) only counts the
call and its depth; the outermost frame carries the span.  Spans stay in
memory until the run ends.  A layer's time is the self time of its spans:
duration minus the time covered by child spans.

A hook whose target no longer exists (a later refactor renamed it) is
skipped, and every metric that depends on it is reported as absent.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

MODULES = (
    "tensor_core",
    "shadow_realiser",
    "crystal_mill",
    "digraph_lab",
    "relaxation_engine",
    "certificate_desk",
    "cli",
)


def _system_sizes(tracer, sys_):
    tracer.peak("relaxation_engine.equations", len(sys_.equations))
    tracer.peak("relaxation_engine.variables", len(sys_.variables))
    tracer.peak("relaxation_engine.live_variables", len(sys_.variables) - len(sys_.forced_zero))


def _presolve_sizes(tracer, red):
    tracer.peak("relaxation_engine.eqs_after_presolve", len(red.eqs))


def _snf_bits(tracer, uvd):
    bits = max((abs(x).bit_length() for m in uvd for row in m for x in row), default=0)
    tracer.peak("relaxation_engine.snf_max_bits", bits)


# (module, attribute path, span name or None, call counter or None,
#  depth peak or None, callback on the result or None)
HOOKS = (
    ("relaxation_engine", "build_ip_system", "relaxation_engine.build", None, None, _system_sizes),
    ("relaxation_engine", "_reduce", "relaxation_engine.presolve",
     "relaxation_engine.presolve_calls", None, _presolve_sizes),
    ("relaxation_engine", "_Simplex.__init__", "relaxation_engine.rref", None, None, None),
    ("relaxation_engine", "_independent_integer_rows", "relaxation_engine.rref", None, None, None),
    ("relaxation_engine", "_Simplex.feasible", "relaxation_engine.phase1", None, None, None),
    ("relaxation_engine", "_Simplex._pivot", None, "relaxation_engine.pivots", None, None),
    ("relaxation_engine", "_Simplex.maximize", None, "relaxation_engine.maximize_calls", None, None),
    ("relaxation_engine", "relative_interior_support", "relaxation_engine.support", None, None, None),
    ("relaxation_engine", "smith_normal_form", "relaxation_engine.snf", None, None, _snf_bits),
    ("shadow_realiser", "_realise", "shadow_realiser.realise",
     "shadow_realiser.realise_calls", "shadow_realiser.realise_max_depth", None),
    ("shadow_realiser", "is_realistic", "shadow_realiser.is_realistic", None, None, None),
    ("crystal_mill", "mine_hollow_crystal", "crystal_mill.mine", None, None, None),
    ("crystal_mill", "crystalise", "crystal_mill.crystalise", None, None, None),
    ("crystal_mill", "is_crystal", "crystal_mill.is_crystal", None, None, None),
    ("tensor_core", "project", "tensor_core.project", "tensor_core.project_calls", None, None),
    ("tensor_core", "loads_st", "tensor_core.st_io", None, None, None),
    ("tensor_core", "dumps_st", "tensor_core.st_io", None, None, None),
    ("certificate_desk", "certificate_from_crystal", "certificate_desk.from_crystal", None, None, None),
    ("certificate_desk", "verify_clique_certificate", "certificate_desk.verify", None, None, None),
    ("certificate_desk", "verify_zaff_certificate_general", "certificate_desk.verify", None, None, None),
    ("certificate_desk", "transform_certificate_homomorphism", "certificate_desk.transport",
     None, None, None),
    ("certificate_desk", "transform_certificate_line_digraph", "certificate_desk.transport",
     None, None, None),
    ("certificate_desk", "_edge_vector_exists", None, "certificate_desk.edge_systems", None, None),
    ("certificate_desk", "certificate_to_json", "certificate_desk.json", None, None, None),
    ("certificate_desk", "certificate_from_json", "certificate_desk.json", None, None, None),
    ("digraph_lab", "homomorphism_exists", "digraph_lab.hom", None, None, None),
    ("cli", "run", "cli.dispatch", None, None, None),
)

# Per-layer metric -> (unit, the end-to-end metrics and workloads it should
# move).  Times ending in ``_s`` are self times of the span of that name.
PER_LAYER = {
    "relaxation_engine.build_s": ("s", "wall_s on relax-cliques"),
    "relaxation_engine.equations": ("count", "wall_s on relax-cliques"),
    "relaxation_engine.variables": ("count", "wall_s on relax-cliques"),
    "relaxation_engine.live_variables": ("count", "wall_s on relax-cliques"),
    "relaxation_engine.presolve_s": ("s", "wall_s, op_p50_s on relax-sweep; wall_s on relax-cliques"),
    "relaxation_engine.presolve_calls": ("count", "wall_s, op_p50_s on relax-sweep; wall_s on relax-cliques"),
    "relaxation_engine.eqs_after_presolve": ("count", "wall_s, op_p50_s on relax-sweep; wall_s on relax-cliques"),
    "relaxation_engine.rref_s": ("s", "wall_s on relax-cliques; op_p90_s on relax-sweep"),
    "relaxation_engine.phase1_s": ("s", "wall_s on relax-cliques; op_p90_s on relax-sweep"),
    "relaxation_engine.pivots": ("count", "wall_s on relax-cliques; op_p90_s on relax-sweep"),
    "relaxation_engine.support_s": ("s", "wall_s on relax-cliques; op_p90_s on relax-sweep"),
    "relaxation_engine.maximize_calls": ("count", "wall_s on relax-cliques; op_p90_s on relax-sweep"),
    "relaxation_engine.snf_s": ("s", "wall_s on relax-cliques"),
    "relaxation_engine.snf_max_bits": ("bits", "wall_s on relax-cliques"),
    "shadow_realiser.realise_s": ("s", "op_p90_s, wall_s, peak_rss_mb on forge-cli"),
    "shadow_realiser.realise_calls": ("count", "op_p90_s, wall_s, peak_rss_mb on forge-cli"),
    "shadow_realiser.realise_max_depth": ("count", "op_p90_s, wall_s, peak_rss_mb, ok_ratio on forge-cli"),
    "shadow_realiser.is_realistic_s": ("s", "op_p90_s on forge-cli"),
    "crystal_mill.mine_s": ("s", "wall_s on forge-cli"),
    "crystal_mill.crystalise_s": ("s", "wall_s on forge-cli"),
    "crystal_mill.is_crystal_s": ("s", "wall_s on forge-cli"),
    "tensor_core.project_calls": ("count", "wall_s on forge-cli"),
    "tensor_core.project_s": ("s", "wall_s on forge-cli"),
    "tensor_core.st_io_s": ("s", "op_p50_s on forge-cli"),
    "certificate_desk.from_crystal_s": ("s", "op_p50_s, wall_s on forge-cli"),
    "certificate_desk.verify_s": ("s", "op_p50_s, wall_s on forge-cli"),
    "certificate_desk.transport_s": ("s", "op_p50_s, wall_s on forge-cli"),
    "certificate_desk.edge_systems": ("count", "op_p50_s, wall_s on forge-cli"),
    "certificate_desk.json_s": ("s", "op_p50_s, wall_s on forge-cli"),
    "digraph_lab.hom_s": ("s", "op_p50_s on forge-cli"),
    "cli.import_s": ("s", "op_p50_s on forge-cli"),
    "cli.dispatch_s": ("s", "op_p50_s on forge-cli"),
    "trace.overhead_s": ("s", "none: traced wall_s minus untraced wall_s of the same run"),
}


_CALLBACK_METRICS = {
    _system_sizes: ("relaxation_engine.equations", "relaxation_engine.variables",
                    "relaxation_engine.live_variables"),
    _presolve_sizes: ("relaxation_engine.eqs_after_presolve",),
    _snf_bits: ("relaxation_engine.snf_max_bits",),
}


def _metric_targets() -> dict[str, list[tuple[str, str]]]:
    """Per-layer metric -> the hook targets it is computed from."""
    out: dict[str, list[tuple[str, str]]] = {}
    for mod, attr, span, calls, depth, after in HOOKS:
        names = [span + "_s" if span else None, calls, depth, *_CALLBACK_METRICS.get(after, ())]
        for name in filter(None, names):
            out.setdefault(name, []).append((mod, attr))
    return out


class Tracer:
    """In-memory spans plus call counters and peaks for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.peaks: dict[str, int] = {}
        self.op = None
        self.missing: list[tuple[str, str]] = []

    def peak(self, name: str, value: int) -> None:
        if value > self.peaks.get(name, -1):
            self.peaks[name] = value

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def dump(self, path: str) -> None:
        doc = {"spans": self.spans, "counts": self.counts, "peaks": self.peaks,
               "missing": self.missing}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def merge(self, path: str) -> None:
        """Fold in the spans and counters another process dumped."""
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        base = len(self.spans)
        for name, start, end, parent, op in doc["spans"]:
            self.spans.append([name, start, end, None if parent is None else parent + base, op])
        for name, n in doc["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + n
        for name, v in doc["peaks"].items():
            self.peak(name, v)
        for target in doc["missing"]:
            if tuple(target) not in self.missing:
                self.missing.append(tuple(target))

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, over closed spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if end is not None and parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if end is not None:
                out[name] = out.get(name, 0.0) + (end - start) - covered[i]
        return out

    def layer_metrics(self, extra: dict | None = None) -> tuple[dict, list[str]]:
        """Every per-layer metric as {name: value}, and the absent ones."""
        times = self.self_times()
        targets = _metric_targets()
        values = dict(extra or {})
        absent = []
        for metric in PER_LAYER:
            if metric in values:
                continue
            if any(t in self.missing for t in targets.get(metric, ())):
                absent.append(metric)
            elif metric.endswith("_s"):
                values[metric] = times.get(metric[:-2], 0.0)
            else:
                values[metric] = self.counts.get(metric, self.peaks.get(metric, 0))
        return values, absent


def _wrap(tracer: Tracer, fn, span, calls, depth, after):
    active = [0]

    def hooked(*args, **kwargs):
        if active[0]:
            # re-entered: count the call and its depth, the outer span times it
            active[0] += 1
            if calls:
                tracer.counts[calls] += 1
            if depth and active[0] > tracer.peaks[depth]:
                tracer.peaks[depth] = active[0]
            try:
                return fn(*args, **kwargs)
            finally:
                active[0] -= 1
        active[0] = 1
        if calls:
            tracer.counts[calls] = tracer.counts.get(calls, 0) + 1
        if depth:
            tracer.peak(depth, 1)
        idx = tracer.begin(span) if span else None
        try:
            result = fn(*args, **kwargs)
        finally:
            if idx is not None:
                tracer.end(idx)
            active[0] = 0
        if after is not None:
            after(tracer, result)
        return result

    hooked.__wrapped__ = fn
    return hooked


def install(tracer: Tracer) -> None:
    """Hook every target in HOOKS; record the ones that are missing.

    Each hooked call adds one wrapper frame, so the recursion limit is
    doubled: a traced ``_realise`` reaches the same depth as an untraced one.
    """
    sys.setrecursionlimit(2 * sys.getrecursionlimit())
    mods = {}
    for name in MODULES:
        try:
            mods[name] = importlib.import_module(f"crystalforge.{name}")
        except ImportError:
            pass
    for mod_name, attr, span, calls, depth, after in HOOKS:
        owner = mods.get(mod_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None) if owner is not None else None
        if fn is None:
            tracer.missing.append((mod_name, attr))
            continue
        hooked = _wrap(tracer, fn, span, calls, depth, after)
        if path:
            setattr(owner, leaf, hooked)
            continue
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("crystalforge"):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, hooked)

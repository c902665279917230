"""crystalforge benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``
without installing it.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced pass, plus the tracing overhead.  A full
record (metadata, every operation's time and outcome) is written to
``.perfbench_out/records/`` and the spans to ``.perfbench_out/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from types import SimpleNamespace

import speed
import tracing
import workloads

WORKLOADS = ("relax-cliques", "relax-sweep", "forge-cli")
SETUP_REPEATS = 7
IMPORT_REPEATS = 5


def _import_package():
    """Import every crystalforge module afresh."""
    for name in [m for m in sys.modules if m == "crystalforge" or m.startswith("crystalforge.")]:
        del sys.modules[name]
    return SimpleNamespace(**{
        name: importlib.import_module(f"crystalforge.{name}") for name in tracing.MODULES
    })


def _run_pass(ops, meter, tracer=None):
    """Issue the operations one at a time; time only ``op.run``.

    The host's speed is probed before the first operation, during each
    one (if the meter has a period) and after it, before its check; ``ref_s`` is the time at
    reference speed (see ``speed.py``).
    """
    results = []
    before = meter.probe()
    for op in ops:
        if tracer is not None:
            tracer.op = op.label
        error = None
        meter.arm()
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception:  # an operation that raises counts as failed
            out, error = None, traceback.format_exc(limit=3)
        finally:
            inside, paused = meter.disarm()
        elapsed = time.perf_counter() - t0 - paused
        after = meter.probe()
        if error is None:
            try:
                status = op.check(out)
            except Exception:  # an output the check cannot read is unchecked
                status, error = "wrong", traceback.format_exc(limit=3)
        else:
            status = "crash"
        if status == "crash" and error is None and isinstance(out, tuple):
            error = out[2][-600:]  # the tail of the CLI's stderr
        results.append({"op": op.label, "s": elapsed,
                        "ref_s": meter.scale(elapsed, [before, *inside, after]),
                        "status": status, "error": error})
        before = after
    return results


def _hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics.  A
    single order statistic jumps when a workload has few operations or
    their times cluster (the sweep is bimodal, K2 against K3); this
    estimate moves smoothly with every operation's time.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    cells = 64  # midpoint rule on each [i/n, (i+1)/n]
    weights = []
    for i in range(n):
        w = 0.0
        for j in range(cells):
            t = (i + (j + 0.5) / cells) / n
            w += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        weights.append(w)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _time_python(env, code: str) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
    return time.perf_counter() - t0


def _cli_import_s(env) -> float:
    """``python -c 'import crystalforge.cli'`` minus ``python -c pass``."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(_time_python(env, "pass"))
        full.append(_time_python(env, "import crystalforge.cli"))
    return statistics.median(full) - statistics.median(bare)


def _metadata(root: str, cf, args) -> dict:
    src = os.path.join(root, "src")
    digest = hashlib.sha256()
    lines = 0
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    data = fh.read()
                digest.update(name.encode() + b"\0" + data)
                lines += sum(1 for ln in data.splitlines() if ln.strip())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
        top, head = (git.stdout.split() + [None, None])[:2]
        if git.returncode == 0 and top and os.path.realpath(top) == os.path.realpath(root):
            commit = head
    except OSError:
        pass
    q = cf.relaxation_engine._Q
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "backend": f"{q.__module__}.{q.__qualname__}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def _untraced_walls(records_dir: str, meta: dict) -> list[float]:
    """wall_s of earlier untraced runs of the same workload and code."""
    same = ("workload", "src_sha256", "python", "backend")
    walls = []
    for name in sorted(os.listdir(records_dir)) if os.path.isdir(records_dir) else ():
        if name.endswith("-trace0.json"):
            with open(os.path.join(records_dir, name), encoding="utf-8") as fh:
                rec = json.load(fh)
            if all(rec["meta"][k] == meta[k] for k in same):
                walls.append(rec["result"]["metrics"]["wall_s"]["value"])
    return walls


def _write_json(path: str, doc) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="whole passes are repeated until this much reference-speed time "
                         "has been measured")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "crystalforge", "__init__.py")):
        print(f"error: no crystalforge sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        # the same seed gives the same set and dict orders, hence the same work
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=hash_seed))
    sys.path.insert(0, src)
    out_dir = os.path.join(root, ".perfbench_out")
    work_dir = os.path.join(out_dir, "work", args.workload)
    cli = workloads.Cli(root, work_dir, hash_seed)

    # Probe inside an operation only when it runs in this process and is
    # not traced: a probe would add to the self time of the layer it
    # interrupted, and next to a CLI child it measures the child's load.
    children = args.workload == "forge-cli"
    meter = speed.Meter(None if args.trace or children else speed.PERIOD_S)

    # set-up: import the package and generate the inputs, several times
    setup_times, setup_ref = [], []
    before = meter.probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cf = _import_package()
        workloads.fresh_dir(work_dir)
        if args.workload == "forge-cli":
            warm, ops = workloads.forge_cli(cli, args.seed)
        elif args.workload == "relax-cliques":
            warm, ops = workloads.relax_cliques(cf, args.seed)
        else:
            warm, ops = workloads.relax_sweep(cf, args.seed)
        setup_times.append(time.perf_counter() - t0)
        after = meter.probe()
        setup_ref.append(meter.scale(setup_times[-1], [before, after]))
        before = after

    _run_pass([warm], meter)  # untimed: first-call costs are not part of a pass
    record = {"meta": _metadata(root, cf, args)}
    records_dir = os.path.join(out_dir, "records")

    if args.trace:
        base = _untraced_walls(records_dir, record["meta"])
        results = []
        if not base:
            # no untraced run of this code yet: time one pass to compare with
            results = _run_pass(ops, meter)
            base = [sum(r["ref_s"] for r in results)]
        tracer = tracing.Tracer()
        if children:
            cli.spans_dir = workloads.fresh_dir(os.path.join(out_dir, "spans", args.workload))
        else:
            tracing.install(tracer)
        traced = _run_pass(ops, meter, tracer)
        if children:
            for name in sorted(os.listdir(cli.spans_dir)):
                tracer.merge(os.path.join(cli.spans_dir, name))
        results += traced
        extra = {"trace.overhead_s": sum(r["ref_s"] for r in traced) - statistics.median(base),
                 "cli.import_s": _cli_import_s(cli.env) if children else 0.0}
        values, absent = tracer.layer_metrics(extra)
        metrics = {name: {"value": v, "unit": tracing.PER_LAYER[name][0]}
                   for name, v in values.items()}
        record.update(ops=results, untraced_walls=base, absent=absent, moves=tracing.PER_LAYER)
        if absent:
            print(f"absent per-layer metrics (hook target missing): {absent}", file=sys.stderr)
        _write_json(os.path.join(out_dir, "traces", f"{args.workload}-seed{args.seed}.json"),
                    {"meta": record["meta"], "spans": tracer.spans})
    else:
        passes = []
        measured = 0.0
        while not passes or measured < args.seconds:
            passes.append(_run_pass(ops, meter))
            measured += sum(r["ref_s"] for r in passes[-1])
        results = [r for p in passes for r in p]
        times = [r["ref_s"] for r in results]
        ok = sum(r["status"] == "ok" for r in results)
        metrics = {
            "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
            "wall_s": {"value": statistics.median(sum(r["ref_s"] for r in p) for p in passes),
                       "unit": "s"},
            "op_p50_s": {"value": _hd_quantile(times, 0.5), "unit": "s"},
            "op_p90_s": {"value": _hd_quantile(times, 0.9), "unit": "s"},
            "ok_ratio": {"value": ok / len(results), "unit": "ratio"},
            "peak_rss_mb": {"value": _peak_rss_mb(children), "unit": "MB"},
        }
        record.update(passes=passes,
                      raw_wall_s=statistics.median(sum(r["s"] for r in p) for p in passes))

    failed = [r for r in results if r["status"] != "ok"]
    for r in failed:
        print(f"{r['status']}: {r['op']}\n{r['error'] or ''}", file=sys.stderr)
    result = {
        "correct": not any(r["status"] == "wrong" for r in results),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }
    record.update(result=result, setup_s=setup_times, setup_ref_s=setup_ref,
                  speed_probes=meter.probes)
    _write_json(os.path.join(records_dir,
                             f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

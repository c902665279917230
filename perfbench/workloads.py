"""The three workloads: their inputs, operations and answer checks.

Each workload is a closed loop: one caller in one process issues one
operation at a time.  ``setup`` builds the operations from the seed; the
program only ever sees the generated inputs.  An operation is
``Op(label, run, check)``: ``run()`` does the work and is the only part
that is timed, ``check(result)`` returns ``"ok"``, ``"wrong"`` (an answer
or output that disagrees with the benchmark's own oracle) or ``"crash"``
(an exception, or an exit code other than the expected one).
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str]


def _relabel(rng: random.Random, n: int, edges) -> frozenset:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return frozenset((perm[u - 1], perm[v - 1]) for u, v in edges)


def _decision(want: bool) -> Callable[[object], str]:
    return lambda got: "ok" if got is want else "wrong"


# ---------------------------------------------------------------------------
# relax-cliques: the BLP/AIP/BA ladder on Kn -> K3 and the k = 4 anchor
# ---------------------------------------------------------------------------

# (decider, n, k, answer at the seed).  The anchor BA(K4, K3, 4) must be NO
# because K4 is not 3-colourable and BA is sound.
CLIQUE_LADDER = [
    (which, n, k, want)
    for n in (4, 5)
    for k in (2, 3)
    for which, want in (("blp", True), ("aip", True), ("ba", k == 2))
] + [("ba", 4, 4, False)]


def relax_cliques(cf, seed: int):
    rx, dg = cf.relaxation_engine, cf.digraph_lab
    rng = random.Random(seed)
    k3 = dg.Digraph(3, _relabel(rng, 3, oracle.clique_edges(3)))
    ops = []
    for which, n, k, want in CLIQUE_LADDER:
        x = dg.Digraph(n, _relabel(rng, n, oracle.clique_edges(n)))
        decide = getattr(rx, f"decide_{which}")
        ops.append(Op(f"{which}-K{n}-K3-k{k}", lambda d=decide, x=x, k=k: d(x, k3, k),
                      _decision(want)))
    warm = Op("warmup-ba-K4-K3-k2", lambda: rx.decide_ba(dg.clique(4), dg.clique(3), 2),
              _decision(True))
    return warm, ops


# ---------------------------------------------------------------------------
# relax-sweep: BA on every loopless digraph with 1-3 vertices, k = |V(X)|
# ---------------------------------------------------------------------------


def relax_sweep(cf, seed: int):
    rx, dg = cf.relaxation_engine, cf.digraph_lab
    rng = random.Random(seed)
    ops = []
    for m in (2, 3):
        template = dg.Digraph(m, frozenset(oracle.clique_edges(m)))
        for nv in (1, 2, 3):
            pairs = oracle.clique_edges(nv)
            for bits in itertools.product((0, 1), repeat=len(pairs)):
                edges = _relabel(rng, nv, [e for e, b in zip(pairs, bits) if b])
                want = oracle.has_hom(nv, edges, m, template.edges)
                x = dg.Digraph(nv, edges)
                ops.append(Op(f"ba-n{nv}-{sorted(edges)}-K{m}",
                              lambda x=x, t=template, k=nv: rx.decide_ba(x, t, k),
                              _decision(want)))
    return ops[0], ops


# ---------------------------------------------------------------------------
# forge-cli: the README command sequence and the c06/c10 certificate
# pipeline, each a ``python -m crystalforge.cli`` subprocess
# ---------------------------------------------------------------------------

CLI_TIMEOUT_S = 120


class Cli:
    """Runs one CLI invocation at a time in ``work_dir``.

    With ``spans_dir`` set, each call goes through ``launch.py``, which
    installs the tracing hooks and writes the call's spans to a file there.
    """

    def __init__(self, root: str, work_dir: str, hash_seed: str):
        self.work_dir = work_dir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONHASHSEED=hash_seed)
        self.spans_dir = None
        self.calls = 0

    def __call__(self, *args: str):
        self.calls += 1
        if self.spans_dir is None:
            cmd = [sys.executable, "-m", "crystalforge.cli", *args]
        else:
            spans = os.path.join(self.spans_dir, f"{self.calls:05d}.json")
            cmd = [sys.executable, os.path.join(HERE, "launch.py"), spans, " ".join(args), *args]
        proc = subprocess.run(cmd, cwd=self.work_dir, env=self.env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def read(self, name: str) -> str:
        with open(os.path.join(self.work_dir, name), encoding="utf-8") as fh:
            return fh.read()

    def write(self, name: str, text: str) -> None:
        with open(os.path.join(self.work_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _random_system(rng: random.Random, widths, p: int, density: float):
    """A realisable shadow system: the increasing p-projections of a seeded
    random integer tensor."""
    cells = itertools.product(*(range(1, w + 1) for w in widths))
    entries = {i: rng.choice((-3, -2, -1, 1, 2, 3)) for i in cells if rng.random() < density}
    return {sel: oracle.projection(entries, sel) for sel in oracle.increasing(len(widths), p)}


def _system_json(widths, p: int, shadows: dict) -> str:
    blobs = [{"axes": list(sel), "tensor": oracle.format_st([widths[m - 1] for m in sel], s)}
             for sel, s in sorted(shadows.items())]
    return json.dumps({"p": p, "widths": list(widths), "shadows": blobs})


def forge_cli(cli: Cli, seed: int):
    rng = random.Random(seed)
    st = lambda name: oracle.parse_st(cli.read(name))  # noqa: E731

    # seeded fixtures, written by the benchmark's own code
    systems = {"r1": ((5,) * 6, 3, 0.3), "r2": ((2,) * 10, 4, 0.5), "bad": ((3,) * 8, 3, 0.3)}
    shadows = {}
    for name, (widths, p, density) in systems.items():
        shadows[name] = _random_system(rng, widths, p, density)
    # break compatibility in the last shadow: its total no longer matches
    bad = shadows["bad"][max(shadows["bad"])]
    old = bad.get((1, 1, 1), 0)
    bad[(1, 1, 1)] = old + (2 if old == -1 else 1)
    for name, (widths, p, _) in systems.items():
        cli.write(f"{name}.json", _system_json(widths, p, shadows[name]))
    w400 = {(i,): rng.randint(1, 3) for i in range(1, 401)}
    cli.write("w400.st", oracle.format_st((400,), w400))
    cyc = _relabel(rng, 3, [(1, 2), (2, 3), (3, 1)])
    cli.write("cyc3.json", json.dumps({"vertices": 3, "edges": sorted(map(list, cyc))}))
    f = dict(zip((1, 2, 3), rng.sample((1, 2, 3, 4), 3)))
    cli.write("f.json", json.dumps({str(u): v for u, v in f.items()}))

    def call(*args, code=0, check=lambda out: True):
        def judge(result):
            got, out, err = result
            if got != code:
                return "crash" if "Traceback" in err or got not in (0, 1) else "wrong"
            try:
                return "ok" if check(out) else "wrong"
            except (OSError, ValueError, KeyError, IndexError):
                return "wrong"  # missing or unreadable output is unchecked
        return Op(" ".join(args), lambda: cli(*args), judge)

    def token(want):
        return lambda out: out == f"{want}\n"

    def mined(k, name):
        return lambda out: oracle.is_hollow_affine_crystal(*st(name), k)

    def crystal_of(src, q, name):
        def ok(out):
            (sw, se), (w, e) = st(src), st(name)
            return oracle.realises(w, e, (sw[0],) * q,
                                   {sel: se for sel in oracle.increasing(q, len(sw))})
        return ok

    def realised(sys_name, name):
        widths, _, _ = systems[sys_name]
        return lambda out: oracle.realises(*st(name), widths, shadows[sys_name])

    def clique_file(n, name):
        return lambda out: oracle.digraph_doc(cli.read(name)) == (n, oracle.clique_edges(n))

    def colouring(out):
        n, edges = oracle.digraph_doc(cli.read("s42.json"))
        g = {int(v): c for v, c in json.loads(out).items()}
        return n == 36 and sorted(g) == list(range(1, n + 1)) and all(
            g[u] != g[v] and 1 <= g[u] <= 3 for u, v in edges)

    def cert_of(crystal, k, name):
        def ok(out):
            _, e = st(crystal)
            doc = json.loads(cli.read(name))
            return doc["k"] == k and all(
                oracle.parse_st(z["tensor"])[1] == oracle.projection(e, z["x"]) for z in doc["zeta"])
        return ok

    def pushed(out):
        src, dst = json.loads(cli.read("cert.json")), json.loads(cli.read("pushed.json"))
        for a, b in zip(src["zeta"], dst["zeta"]):
            image: dict = {}
            for idx, v in oracle.parse_st(a["tensor"])[1].items():
                key = tuple(f[c] for c in idx)
                image[key] = image.get(key, 0) + v
            if {i: v for i, v in image.items() if v} != oracle.parse_st(b["tensor"])[1]:
                return False
        return dst["template"] == {"clique": 4} and len(dst["zeta"]) == len(src["zeta"])

    def lowered(name, k, vertices):
        def ok(out):
            doc = json.loads(cli.read(name))
            return doc["k"] == k and doc["instance"]["vertices"] == vertices
        return ok

    fool = "i 3\nq_bits 65537\nq -\nb_iterates 6 20 184756\nthresholds 16 64 256\n"
    ops = [
        call("crystal", "mine", "--k", "2", "-o", "u.st", check=mined(2, "u.st")),
        call("crystal", "mine", "--k", "3", "-o", "c3.st", check=mined(3, "c3.st")),
        call("crystal", "mine", "--k", "4", "-o", "c4.st", check=mined(4, "c4.st")),
        call("crystal", "verify", "--k", "3", "c3.st", check=token("YES")),
        call("crystal", "verify", "--k", "4", "c4.st", check=token("YES")),
        call("crystal", "crystalise", "--q", "5", "c3.st", "-o", "c3q5.st",
             check=crystal_of("c3.st", 5, "c3q5.st")),
        call("crystal", "shadow", "--k", "3", "c3q5.st",
             check=lambda out: oracle.parse_st(out) == st("c3.st")),
        call("crystal", "crystalise", "--q", "6", "c4.st", "-o", "c4q6.st",
             check=crystal_of("c4.st", 6, "c4q6.st")),
        # expected to succeed; today it raises RecursionError (a known defect)
        call("crystal", "crystalise", "--q", "3", "w400.st", "-o", "w400q3.st",
             check=crystal_of("w400.st", 3, "w400q3.st")),
        call("shadows", "check", "r1.json", check=token("YES")),
        call("shadows", "realise", "r1.json", "-o", "r1.st", check=realised("r1", "r1.st")),
        call("shadows", "check", "r2.json", check=token("YES")),
        call("shadows", "realise", "r2.json", "-o", "r2.st", check=realised("r2", "r2.st")),
        call("shadows", "check", "bad.json", code=1, check=token("NO")),
        call("shadows", "realise", "bad.json", "-o", "bad.st", code=1,
             check=lambda out: not os.path.exists(os.path.join(cli.work_dir, "bad.st"))),
        call("digraph", "clique", "--q", "4", "-o", "k4.json", check=clique_file(4, "k4.json")),
        call("digraph", "clique", "--q", "3", "-o", "k3.json", check=clique_file(3, "k3.json")),
        call("digraph", "clique", "--q", "5", "-o", "k5.json", check=clique_file(5, "k5.json")),
        call("digraph", "shift", "--q", "4", "--i", "2", "-o", "s42.json",
             check=lambda out: oracle.digraph_doc(cli.read("s42.json"))[0] == 36),
        call("hom", "s42.json", "k3.json", check=colouring),
        call("relax", "blp", "--k", "2", "k4.json", "k3.json", check=token("YES")),
        call("relax", "aip", "--k", "3", "k4.json", "k3.json", check=token("YES")),
        call("relax", "ba", "--k", "2", "k4.json", "k3.json", check=token("YES")),
        call("crystal", "crystalise", "--q", "4", "u.st", "-o", "u4.st",
             check=crystal_of("u.st", 4, "u4.st")),
        call("cert", "from-crystal", "--k", "2", "u4.st", "k4.json", "-o", "cert.json",
             check=cert_of("u4.st", 2, "cert.json")),
        call("cert", "verify", "cert.json", check=token("YES")),
        call("cert", "push-hom", "cert.json", "f.json", "k4.json", "-o", "pushed.json",
             check=pushed),
        call("cert", "verify", "pushed.json", check=token("YES")),
        call("cert", "linegraph", "cert.json", "-o", "lowered.json",
             check=lowered("lowered.json", 1, 12)),
        call("crystal", "crystalise", "--q", "5", "u.st", "-o", "u5.st",
             check=crystal_of("u.st", 5, "u5.st")),
        call("cert", "from-crystal", "--k", "2", "u5.st", "k5.json", "-o", "cert5.json",
             check=cert_of("u5.st", 2, "cert5.json")),
        call("cert", "verify", "cert5.json", check=token("YES")),
        call("crystal", "crystalise", "--q", "5", "c4.st", "-o", "c4q5.st",
             check=crystal_of("c4.st", 5, "c4q5.st")),
        call("cert", "from-crystal", "--k", "4", "c4q5.st", "cyc3.json", "-o", "cert4.json",
             check=cert_of("c4q5.st", 4, "cert4.json")),
        call("cert", "verify", "cert4.json", check=token("YES")),
        call("cert", "linegraph", "cert4.json", "-o", "cert2.json",
             check=lowered("cert2.json", 2, 3)),
        call("cert", "verify", "cert2.json", check=token("YES")),
        call("fool", "params", "--c", "4", "--d", "4", "--k", "2", check=lambda out: out == fool),
    ]
    warm = call("fool", "params", "--c", "4", "--d", "4", "--k", "2")
    return warm, ops


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path

"""The CLI in fresh interpreters: which crystalforge modules each verb
loads, and the exit code of each error when only those modules are loaded.

The in-process tests in ``test_cli.py`` cannot see either: the test
modules import the whole package first, so a verb that loads a module it
does not run, or an exit code that depends on a module the verb did not
load, passes there all the same.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crystalforge.certificate_desk import certificate_from_crystal, certificate_to_json
from crystalforge.crystal_mill import mine_hollow_crystal, mine_hollow_shadowed_crystal
from crystalforge.digraph_lab import Digraph, clique, digraph_to_json
from crystalforge.shadow_realiser import ShadowSystem, increasing_tuples, system_to_json
from crystalforge.tensor_core import IntTensor, dumps_st, project

SRC = str(Path(__file__).resolve().parents[1] / "src")

# runs one verb through ``cli.run``, then prints its exit code, the
# crystalforge modules loaded and whether ``fractions`` and ``dataclasses``
# were, as the last line of stdout
PROBE = """\
import json, sys
from crystalforge.cli import run
code = run(sys.argv[1:]) if sys.argv[1:] else None
mods = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("crystalforge."))
print(json.dumps({"code": code, "modules": mods, "fractions": "fractions" in sys.modules,
                  "dataclasses": "dataclasses" in sys.modules}))
"""


def python(cwd, *args):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Every file a verb below reads, written by the library in this process."""
    d = tmp_path_factory.mktemp("cli_inputs")
    (d / "u.st").write_text(dumps_st(mine_hollow_crystal(2)))
    (d / "c4.st").write_text(dumps_st(mine_hollow_shadowed_crystal(2, 4)))
    for n in (3, 4):
        (d / f"k{n}.json").write_text(digraph_to_json(clique(n)))
    (d / "cyc3.json").write_text(digraph_to_json(Digraph(3, frozenset({(1, 2), (2, 3), (3, 1)}))))
    cert = certificate_from_crystal(mine_hollow_shadowed_crystal(2, 4), clique(4), 2)
    (d / "cert.json").write_text(certificate_to_json(cert))
    (d / "f.json").write_text(json.dumps({str(v): v for v in range(1, 4)}))
    c = IntTensor((2, 2, 2), {(1, 2, 1): 3, (2, 1, 2): -1})
    ok = ShadowSystem(2, c.shape, {i: project(c, i) for i in increasing_tuples(3, 2)})
    (d / "sys.json").write_text(system_to_json(ok))
    (d / "bad_sys.json").write_text(json.dumps({"p": 1, "widths": [2, 2], "shadows": [
        {"axes": [1], "tensor": "st 1\ndims 1\nwidths 2\nentries 1\n1 1\n"},
        {"axes": [2], "tensor": "st 1\ndims 1\nwidths 2\nentries 1\n1 2\n"},
    ]}))
    (d / "bad.st").write_text("not a tensor\n")
    (d / "scalar.st").write_text(dumps_st(IntTensor((), {(): 1})))
    # tiny inputs naming combinatorial families: C(60,30) keys, 2^22 - 1
    # projections to realise, C(60,30), C(24,12) and C(23,11) tuples to
    # compare
    (d / "keys60.json").write_text(json.dumps({"p": 30, "widths": [1] * 60, "shadows": []}))
    one21 = dumps_st(IntTensor((1,) * 21, {(1,) * 21: 1}))
    (d / "q22.json").write_text(json.dumps({"p": 21, "widths": [1] * 22, "shadows": [
        {"axes": list(i), "tensor": one21} for i in increasing_tuples(22, 21)]}))
    for q in (24, 60):
        (d / f"one{q}.st").write_text(dumps_st(IntTensor((1,) * q, {(1,) * q: 1})))
    (d / "empty23.st").write_text(dumps_st(IntTensor((1,) * 23, {})))
    (d / "bad.json").write_text("{")
    (d / "typo.json").write_text('{"vertices": 3, "edges": [[1, 2], [2, 1], [1, true]]}')
    (d / "plus.st").write_text("st 1\ndims 1\nwidths 2\nentries 1\n1 +1\n")
    return d


DIGRAPH = ["digraph_lab"]
TENSORS = ["crystal_mill", "shadow_realiser", "tensor_core"]
CERT = ["certificate_desk", "digraph_lab", "tensor_core"]


VERBS = [
    ((), None, []),  # ``import crystalforge.cli`` alone
    (("fool", "params", "--c", "4", "--d", "4", "--k", "2"), 0, DIGRAPH),
    (("digraph", "clique", "--q", "3"), 0, DIGRAPH),
    (("digraph", "linegraph", "k3.json"), 0, DIGRAPH),
    (("digraph", "shift", "--q", "3", "--i", "1"), 0, DIGRAPH),
    (("hom", "cyc3.json", "k3.json"), 0, DIGRAPH),
    (("relax", "blp", "--k", "1", "k4.json", "k3.json"), 0, ["digraph_lab", "relaxation_engine"]),
    (("crystal", "mine", "--k", "2"), 0, TENSORS),
    (("crystal", "verify", "--k", "2", "u.st"), 0, TENSORS),
    (("crystal", "shadow", "--k", "2", "c4.st"), 0, TENSORS),
    (("crystal", "crystalise", "--q", "3", "u.st"), 0, TENSORS),
    (("shadows", "check", "sys.json"), 0, ["shadow_realiser", "tensor_core"]),
    (("shadows", "realise", "sys.json"), 0, ["shadow_realiser", "tensor_core"]),
    (("cert", "from-crystal", "--k", "2", "c4.st", "k4.json"), 0,
     CERT + ["crystal_mill", "shadow_realiser"]),
    (("cert", "verify", "cert.json"), 0, CERT),
    (("cert", "push-hom", "cert.json", "f.json", "k4.json"), 0, CERT),
    (("cert", "linegraph", "cert.json"), 0, CERT),
]


@pytest.mark.parametrize("argv, code, modules", VERBS,
                         ids=[" ".join(v[0]) or "import" for v in VERBS])
def test_each_verb_loads_only_the_modules_it_runs(inputs, argv, code, modules):
    proc = python(inputs, "-c", PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    # only the LP engine computes with Fraction, and no verb loads dataclasses
    fractions = "relaxation_engine" in modules
    assert last == {"code": code, "modules": sorted(["cli", *modules]), "fractions": fractions,
                    "dataclasses": False}


ERRORS = [
    (("crystal", "verify", "--k", "2", "bad.st"), 2, "error: "),  # TensorError
    (("digraph", "clique", "--q", "0"), 2, "error: clique size must be >= 1\n"),  # DigraphError
    (("relax", "ba", "--k", "12", "k4.json", "k3.json"), 2,  # DigraphError
     "error: the level-12 system has 4^12*3^12 + 12*6 = 8916100448328 columns, "
     "over the budget of 1000000\n"),
    (("shadows", "realise", "bad_sys.json"), 1, "not realistic"),  # NotRealistic
    (("hom", "bad.json", "k3.json"), 2, "error: bad digraph JSON: "),
    (("cert", "verify", "bad.json"), 2, "error: bad certificate JSON: "),
    (("cert", "push-hom", "cert.json", "bad.json", "k4.json"), 2,
     "error: bad homomorphism JSON"),
    (("shadows", "check", "keys60.json"), 2,  # TensorError
     f"error: shadow keys wrong: {math.comb(60, 30)} of the C(60,30) = {math.comb(60, 30)} "),
    (("shadows", "realise", "q22.json"), 2,  # TensorError
     "error: realising 22 shadows of dimension 21 and at most 1 entries on q = 22 modes takes "
     f"{22 * 2 * (2**22 - 1)} reads, over the budget of 2000000\n"),
    (("crystal", "shadow", "--k", "30", "one60.st"), 2,
     f"error: checking the 30-projections of 1 entries in q = 60 modes takes "
     f"C(60,30)*(1*8+25) = {33 * math.comb(60, 30)} reads, over the budget of 2000000\n"),
    (("crystal", "shadow", "--k", "12", "one24.st"), 2, f"= {29 * math.comb(24, 12)} reads"),
    (("cert", "from-crystal", "--k", "12", "one24.st", "k4.json"), 2,
     f"error: checking the 12-projections of 1 entries in q = 24 modes takes "
     f"C(24,12)*(1*4+25) = {29 * math.comb(24, 12)} reads, over the budget of 2000000\n"),
    # each tuple weighs 25 reads, so an empty tensor is refused too
    (("crystal", "shadow", "--k", "11", "empty23.st"), 2,
     f"error: checking the 11-projections of 0 entries in q = 23 modes takes "
     f"C(23,11)*(0*3+25) = {25 * math.comb(23, 11)} reads, over the budget of 2000000\n"),
    # a level below 1 is the library's error, not the CLI's
    (("crystal", "verify", "--k", "0", "scalar.st"), 2, "error: k must be >= 1, got 0\n"),
    (("relax", "ba", "--k", "0", "k4.json", "k3.json"), 2,
     "error: level k must be >= 1, got 0\n"),
    # numbers are read as they are spelled, not through int()
    (("relax", "ba", "--k", "2", "k4.json", "typo.json"), 2,
     "error: bad digraph JSON: expected an integer, got true\n"),
    (("crystal", "verify", "--k", "1", "plus.st"), 2, "error: bad entry line: '1 +1'\n"),
]


@pytest.mark.parametrize("argv, code, err", ERRORS, ids=[" ".join(v[0]) for v in ERRORS])
def test_exit_codes_in_a_fresh_interpreter(inputs, argv, code, err):
    proc = python(inputs, "-m", "crystalforge.cli", *argv)
    assert (proc.returncode, proc.stdout) == (code, "")
    assert err in proc.stderr and "internal error" not in proc.stderr

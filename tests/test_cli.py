import ast
import importlib
import itertools
import json
import math
import re
import runpy
import sys
import time
import warnings
from pathlib import Path

import pytest

from crystalforge.cli import run
from crystalforge.crystal_mill import crystalise, mine_hollow_crystal
from crystalforge.digraph_lab import Digraph, clique, digraph_from_json, digraph_to_json
from crystalforge.shadow_realiser import increasing_tuples, ShadowSystem, system_to_json
from crystalforge.tensor_core import IntTensor, dumps_st, loads_st, project


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(path, g):
    path.write_text(digraph_to_json(g))
    return str(path)


# -- crystal ----------------------------------------------------------------


def test_crystal_mine_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "c.st"
    code, _, _ = invoke(capsys, "crystal", "mine", "--k", "3", "-o", str(out))
    assert code == 0
    t = loads_st(out.read_text())
    assert t.shape == (6, 6, 6)
    code, stdout, _ = invoke(capsys, "crystal", "verify", "--k", "3", str(out))
    assert code == 0 and stdout == "YES\n"


def test_crystal_verify_rejects_wrong_k(tmp_path, capsys):
    out = tmp_path / "c.st"
    invoke(capsys, "crystal", "mine", "--k", "2", "-o", str(out))
    code, stdout, err = invoke(capsys, "crystal", "verify", "--k", "3", str(out))
    assert code == 1 and stdout == "NO\n" and err


@pytest.mark.parametrize("k", ["0", "-1"])
def test_crystal_verify_level_below_one_is_a_usage_error(tmp_path, capsys, k):
    point = tmp_path / "p.st"  # a 0-dimensional tensor
    point.write_text("st 1\ndims 0\nwidths\nentries 1\n1\n")
    code, stdout, err = invoke(capsys, "crystal", "verify", "--k", k, str(point))
    assert code == 2 and stdout == "" and err.startswith("error:")


def test_crystal_shadow_and_crystalise(tmp_path, capsys):
    mined = tmp_path / "u.st"
    invoke(capsys, "crystal", "mine", "--k", "2", "-o", str(mined))
    lifted = tmp_path / "c.st"
    code, _, _ = invoke(capsys, "crystal", "crystalise", "--q", "4", str(mined), "-o", str(lifted))
    assert code == 0
    code, stdout, _ = invoke(capsys, "crystal", "shadow", "--k", "2", str(lifted))
    assert code == 0
    assert loads_st(stdout) == loads_st(mined.read_text())


def test_crystal_mine_deterministic(tmp_path, capsys):
    _, out1, _ = invoke(capsys, "crystal", "mine", "--k", "3")
    _, out2, _ = invoke(capsys, "crystal", "mine", "--k", "3")
    assert out1 == out2


def test_crystal_crystalise_over_the_read_budget_is_a_usage_error(tmp_path, capsys):
    mined = tmp_path / "h3.st"
    invoke(capsys, "crystal", "mine", "--k", "3", "-o", str(mined))
    assert invoke(capsys, "crystal", "crystalise", "--q", "2000", str(mined)) == (
        2, "", "error: lifting 13 entries of dimension 3 to q = 2000 takes "
        "24851599083098676000 reads, over the budget of 2000000\n",
    )


@pytest.mark.parametrize("k", ["10", "1000"])
def test_crystal_mine_over_the_size_budget_is_a_usage_error(capsys, k):
    code, stdout, err = invoke(capsys, "crystal", "mine", "--k", k)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: k = {k} is over the size budget k <= 9")


# -- shadows ----------------------------------------------------------------


def system_file(tmp_path, c, p):
    q = c.dim
    sys = ShadowSystem(p, c.shape, {i: project(c, i) for i in increasing_tuples(q, p)})
    f = tmp_path / "sys.json"
    f.write_text(system_to_json(sys))
    return str(f), sys


def test_shadows_check_and_realise(tmp_path, capsys):
    c = IntTensor((2, 2, 2), {(1, 2, 1): 3, (2, 1, 2): -1})
    path, sys = system_file(tmp_path, c, 2)
    code, stdout, _ = invoke(capsys, "shadows", "check", path)
    assert code == 0 and stdout == "YES\n"
    out = tmp_path / "w.st"
    code, _, _ = invoke(capsys, "shadows", "realise", path, "-o", str(out))
    assert code == 0
    w = loads_st(out.read_text())
    for i in increasing_tuples(3, 2):
        assert project(w, i) == sys.shadows[i]


def test_shadows_check_unrealistic(tmp_path, capsys):
    doc = {
        "p": 1,
        "widths": [2, 2],
        "shadows": [
            {"axes": [1], "tensor": "st 1\ndims 1\nwidths 2\nentries 1\n1 1\n"},
            {"axes": [2], "tensor": "st 1\ndims 1\nwidths 2\nentries 1\n1 2\n"},
        ],
    }
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    code, stdout, err = invoke(capsys, "shadows", "check", str(f))
    assert code == 1 and stdout == "NO\n" and "compatibility" in err
    code, _, err = invoke(capsys, "shadows", "realise", str(f))
    assert code == 1 and "not realistic" in err


def test_shadows_check_non_string_payload_is_a_format_error(tmp_path, capsys):
    doc = {"p": 1, "widths": [2], "shadows": [{"axes": [1], "tensor": 5}]}
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    code, stdout, err = invoke(capsys, "shadows", "check", str(f))
    assert code == 2 and stdout == "" and err.startswith("error:")



@pytest.mark.parametrize("verb", ["check", "realise"])
def test_shadows_number_that_is_not_an_integer_is_a_format_error(tmp_path, capsys, verb):
    # int() would read this as p = 1 with widths (2, 2)
    doc = json.loads(system_to_json(ShadowSystem(1, (2, 2), {
        (1,): IntTensor((2,), {(1,): 1}), (2,): IntTensor((2,), {(2,): 1})})))
    doc.update(p=1.9, widths=[2, 2.5])
    f = tmp_path / "sys.json"
    f.write_text(json.dumps(doc))
    assert invoke(capsys, "shadows", verb, str(f)) == (
        2, "", "error: bad shadow-system JSON: expected an integer, got 1.9\n")


@pytest.mark.parametrize("verb", ["check", "realise"])
@pytest.mark.parametrize("key, reason", [("p", 'key "p" appears twice'), ("typo", 'unexpected key "typo"')])
def test_shadows_repeated_or_unknown_key_is_a_format_error(tmp_path, capsys, verb, key, reason):
    text = system_to_json(ShadowSystem(1, (2, 2), {
        (1,): IntTensor((2,), {(1,): 1}), (2,): IntTensor((2,), {(2,): 1})}))
    f = tmp_path / "sys.json"
    f.write_text(text.replace('"p": 1,', f'"{key}": 2, "p": 1,', 1))
    assert invoke(capsys, "shadows", verb, str(f)) == (
        2, "", f"error: bad shadow-system JSON: {reason}\n")


@pytest.mark.parametrize("verb", ["check", "realise"])
@pytest.mark.parametrize("name", ["missing.st", "sub"], ids=["missing", "directory"])
def test_shadows_unreadable_tensor_file_is_a_format_error(tmp_path, capsys, verb, name):
    (tmp_path / "sub").mkdir()
    doc = {"p": 1, "widths": [2], "shadows": [{"axes": [1], "tensor": name}]}
    f = tmp_path / "sys.json"
    f.write_text(json.dumps(doc))
    code, stdout, err = invoke(capsys, "shadows", verb, str(f))
    assert code == 2 and stdout == "" and err.startswith("error: bad shadow-system JSON:")
    assert str(tmp_path / name) in err


@pytest.mark.parametrize("verb", ["check", "realise"])
def test_shadows_repeated_axes_is_a_format_error(tmp_path, capsys, verb):
    blob = {"axes": [1], "tensor": "st 1\ndims 1\nwidths 2\nentries 1\n1 1\n"}
    doc = {"p": 1, "widths": [2], "shadows": [blob, dict(blob, tensor=blob["tensor"][:-4] + "2 1\n")]}
    f = tmp_path / "sys.json"
    f.write_text(json.dumps(doc))
    assert invoke(capsys, "shadows", verb, str(f)) == (
        2,
        "",
        "error: bad shadow-system JSON: duplicate shadow for axes (1,)\n",
    )

# -- digraph / hom ----------------------------------------------------------


def test_digraph_commands(tmp_path, capsys):
    code, stdout, _ = invoke(capsys, "digraph", "clique", "--q", "3")
    assert code == 0 and digraph_from_json(stdout) == clique(3)

    k3 = write_graph(tmp_path / "k3.json", clique(3))
    code, stdout, _ = invoke(capsys, "digraph", "linegraph", k3)
    assert code == 0 and digraph_from_json(stdout).vertex_count == 6

    code, stdout, _ = invoke(capsys, "digraph", "shift", "--q", "3", "--i", "1")
    lg = digraph_from_json(stdout)
    assert code == 0 and lg.vertex_count == 6


def test_hom_yes_prints_colouring(tmp_path, capsys):
    cyc = Digraph(3, frozenset({(1, 2), (2, 3), (3, 1)}))
    x = write_graph(tmp_path / "c3.json", cyc)
    a = write_graph(tmp_path / "k3.json", clique(3))
    code, stdout, _ = invoke(capsys, "hom", x, a)
    assert code == 0
    f = {int(u): v for u, v in json.loads(stdout).items()}
    assert all((f[u], f[v]) in clique(3).edges for u, v in cyc.edges)


def test_hom_no(tmp_path, capsys):
    x = write_graph(tmp_path / "k4.json", clique(4))
    a = write_graph(tmp_path / "k3.json", clique(3))
    code, stdout, _ = invoke(capsys, "hom", x, a)
    assert code == 1 and stdout == "NO\n"


@pytest.mark.parametrize("argv, err", [
    (("digraph", "clique", "--q", "100000"),
     "K_100000 has 100000*99999 = 9999900000 edges, over the budget of 1000000"),
    (("digraph", "shift", "--q", "4", "--i", "20"),
     "S_{4,20} has 4*3^21 edges, over the budget of 1000000"),
])
def test_digraph_over_the_edge_budget_is_a_usage_error(capsys, argv, err):
    assert invoke(capsys, *argv) == (2, "", f"error: {err}\n")


def test_linegraph_over_the_edge_budget_is_a_usage_error(tmp_path, capsys):
    # 1,001 edges into vertex 1 and 1,001 out of it: 1,001^2 paths through it
    hub = tmp_path / "hub.json"
    hub.write_text(json.dumps({
        "vertices": 2003,
        "edges": [[v, 1] for v in range(2, 1003)] + [[1, v] for v in range(1003, 2004)],
    }))
    assert invoke(capsys, "digraph", "linegraph", str(hub)) == (
        2, "", "error: the line digraph has 1002001 edges, over the budget of 1000000\n",
    )


def test_hom_over_the_domain_budget_is_a_usage_error(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text('{"vertices": 1000000000, "edges": [[1, 2]]}')
    assert invoke(capsys, "hom", str(big), str(big)) == (
        2, "", "error: the search has 1000000000*1000000000 = 1000000000000000000 domain cells, "
        "over the budget of 100000\n",
    )


# -- relax ------------------------------------------------------------------


def test_relax_verbs(tmp_path, capsys):
    k4 = write_graph(tmp_path / "k4.json", clique(4))
    k3 = write_graph(tmp_path / "k3.json", clique(3))
    code, stdout, _ = invoke(capsys, "relax", "ba", "--k", "2", k4, k3)
    assert code == 0 and stdout == "YES\n"
    code, stdout, _ = invoke(capsys, "relax", "aip", "--k", "1", k4, k3)
    assert code == 0 and stdout == "YES\n"
    code, stdout, _ = invoke(capsys, "relax", "blp", "--k", "1", k4, k3)
    assert code == 0 and stdout == "YES\n"


def test_relax_level_below_one_is_a_usage_error(tmp_path, capsys):
    k4 = write_graph(tmp_path / "k4.json", clique(4))
    k3 = write_graph(tmp_path / "k3.json", clique(3))
    for which in ("blp", "aip", "ba"):
        for k in ("0", "-1"):
            code, stdout, err = invoke(capsys, "relax", which, "--k", k, k4, k3)
            assert code == 2 and stdout == "" and err.startswith("error:")


@pytest.mark.parametrize("which", ["blp", "aip", "ba"])
def test_relax_refuses_a_template_with_a_bool_for_a_vertex(tmp_path, capsys, which):
    """A bool is not a vertex: read as 1, ``[1, true]`` would be the loop
    (1, 1), every digraph maps to a looped template, and BA would answer
    YES for K4 against this K3 with a typo."""
    k4 = write_graph(tmp_path / "k4.json", clique(4))
    typo = tmp_path / "t.json"
    typo.write_text('{"vertices": 3, "edges": [[1, 2], [2, 1], [1, true]]}')
    code, stdout, err = invoke(capsys, "relax", which, "--k", "2", k4, str(typo))
    assert (code, stdout) == (2, "")
    assert err == "error: bad digraph JSON: expected an integer, got true\n"


@pytest.mark.parametrize("which", ["blp", "aip", "ba"])
def test_relax_over_the_size_budget_is_a_usage_error(tmp_path, capsys, which):
    k4 = write_graph(tmp_path / "k4.json", clique(4))
    k3 = write_graph(tmp_path / "k3.json", clique(3))
    code, stdout, err = invoke(capsys, "relax", which, "--k", "12", k4, k3)
    assert (code, stdout) == (2, "")
    assert err == (
        "error: the level-12 system has 4^12*3^12 + 12*6 = 8916100448328 columns, "
        "over the budget of 1000000\n"
    )
    point = write_graph(tmp_path / "k1.json", clique(1))
    k = "10" * 20
    code, stdout, err = invoke(capsys, "relax", which, "--k", k, point, point)
    assert (code, stdout, err) == (2, "", f"error: level {k} is over the budget of 64\n")


# -- cert -------------------------------------------------------------------


def test_cert_pipeline(tmp_path, capsys):
    cst = tmp_path / "c.st"
    invoke(capsys, "crystal", "mine", "--k", "2", "-o", str(cst))
    lifted = tmp_path / "c4.st"
    invoke(capsys, "crystal", "crystalise", "--q", "4", str(cst), "-o", str(lifted))
    k4 = write_graph(tmp_path / "k4.json", clique(4))
    cert = tmp_path / "cert.json"
    code, _, _ = invoke(capsys, "cert", "from-crystal", "--k", "2", str(lifted), k4, "-o", str(cert))
    assert code == 0
    code, stdout, _ = invoke(capsys, "cert", "verify", str(cert))
    assert code == 0 and stdout == "YES\n"

    # push along the inclusion K_3 -> K_4 and re-verify
    fmap = tmp_path / "f.json"
    fmap.write_text(json.dumps({"1": 1, "2": 2, "3": 3}))
    pushed = tmp_path / "pushed.json"
    code, _, _ = invoke(capsys, "cert", "push-hom", str(cert), str(fmap), k4, "-o", str(pushed))
    assert code == 0
    code, stdout, _ = invoke(capsys, "cert", "verify", str(pushed))
    assert code == 0 and stdout == "YES\n"


def test_cert_verify_rejects_tampering(tmp_path, capsys):
    cst = tmp_path / "c.st"
    invoke(capsys, "crystal", "mine", "--k", "2", "-o", str(cst))
    lifted = tmp_path / "c4.st"
    invoke(capsys, "crystal", "crystalise", "--q", "4", str(cst), "-o", str(lifted))
    k4 = write_graph(tmp_path / "k4.json", clique(4))
    cert = tmp_path / "cert.json"
    invoke(capsys, "cert", "from-crystal", "--k", "2", str(lifted), k4, "-o", str(cert))
    doc = json.loads(cert.read_text())
    # bump one entry of one image, keeping the payload well-formed
    from crystalforge.tensor_core import dumps_st

    t = loads_st(doc["zeta"][3]["tensor"])
    entries = dict(t.entries)
    idx = sorted(entries)[0]
    entries[idx] += 1
    doc["zeta"][3]["tensor"] = dumps_st(IntTensor(t.shape, entries))
    cert.write_text(json.dumps(doc))
    code, stdout, err = invoke(capsys, "cert", "verify", str(cert))
    assert code == 1 and stdout == "NO\n" and err


def test_cert_from_crystal_level_below_two_is_a_usage_error(tmp_path, capsys):
    cst = tmp_path / "c.st"
    invoke(capsys, "crystal", "mine", "--k", "2", "-o", str(cst))
    lifted = tmp_path / "c4.st"
    invoke(capsys, "crystal", "crystalise", "--q", "4", str(cst), "-o", str(lifted))
    k4 = write_graph(tmp_path / "k4.json", clique(4))
    for k in ("0", "1"):
        cert = tmp_path / f"cert{k}.json"
        code, stdout, err = invoke(
            capsys, "cert", "from-crystal", "--k", k, str(lifted), k4, "-o", str(cert)
        )
        assert code == 2 and stdout == "" and err.startswith("error:")
        assert not cert.exists()


def test_cert_verify_non_string_payload_is_a_format_error(tmp_path, capsys):
    cst = tmp_path / "c.st"
    invoke(capsys, "crystal", "mine", "--k", "2", "-o", str(cst))
    lifted = tmp_path / "c4.st"
    invoke(capsys, "crystal", "crystalise", "--q", "4", str(cst), "-o", str(lifted))
    k4 = write_graph(tmp_path / "k4.json", clique(4))
    cert = tmp_path / "cert.json"
    invoke(capsys, "cert", "from-crystal", "--k", "2", str(lifted), k4, "-o", str(cert))
    doc = json.loads(cert.read_text())
    doc["zeta"][0]["tensor"] = 5
    cert.write_text(json.dumps(doc))
    code, stdout, err = invoke(capsys, "cert", "verify", str(cert))
    assert code == 2 and stdout == "" and err.startswith("error:")


def k4_certificate_doc(tmp_path, capsys):
    cst = tmp_path / "c.st"
    invoke(capsys, "crystal", "mine", "--k", "2", "-o", str(cst))
    lifted = tmp_path / "c4.st"
    invoke(capsys, "crystal", "crystalise", "--q", "4", str(cst), "-o", str(lifted))
    k4 = write_graph(tmp_path / "k4.json", clique(4))
    cert = tmp_path / "cert.json"
    invoke(capsys, "cert", "from-crystal", "--k", "2", str(lifted), k4, "-o", str(cert))
    return json.loads(cert.read_text())


def test_cert_verify_negative_level_is_a_format_error(tmp_path, capsys):
    doc = k4_certificate_doc(tmp_path, capsys)
    doc["k"] = -1
    cert = tmp_path / "neg.json"
    cert.write_text(json.dumps(doc))
    code, stdout, err = invoke(capsys, "cert", "verify", str(cert))
    assert code == 2 and stdout == "" and err.startswith("error:")


@pytest.mark.parametrize("key, reason", [("k", 'key "k" appears twice'), ("extra", 'unexpected key "extra"')])
def test_cert_verify_repeated_or_unknown_key_is_a_format_error(tmp_path, capsys, key, reason):
    text = json.dumps(k4_certificate_doc(tmp_path, capsys))
    cert = tmp_path / "bad.json"
    cert.write_text(text.replace('"k": 2,', f'"{key}": 3, "k": 2,', 1))
    assert invoke(capsys, "cert", "verify", str(cert)) == (
        2, "", f"error: bad certificate JSON: {reason}\n")


def test_cert_verify_short_zeta_is_refused_before_listing_tuples(tmp_path, capsys):
    # 3^13 vertex tuples: listing them all took seconds and hundreds of MB
    doc = {
        "k": 13,
        "instance": json.loads(digraph_to_json(clique(3))),
        "template": {"clique": 3},
        "zeta": [],
    }
    cert = tmp_path / "empty.json"
    cert.write_text(json.dumps(doc))
    t0 = time.monotonic()
    code, stdout, err = invoke(capsys, "cert", "verify", str(cert))
    assert time.monotonic() - t0 < 0.5
    assert code == 2 and stdout == "" and err.startswith("error:")


def test_cert_verify_duplicate_tuple_is_a_format_error(tmp_path, capsys):
    doc = k4_certificate_doc(tmp_path, capsys)
    # a second, tampered image for the same x: neither order may be read
    blob = doc["zeta"][3]
    t = loads_st(blob["tensor"])
    entries = dict(t.entries)
    entries[sorted(entries)[0]] += 1
    twin = {"x": blob["x"], "tensor": dumps_st(IntTensor(t.shape, entries))}
    for zeta in (doc["zeta"] + [twin], [twin] + doc["zeta"]):
        cert = tmp_path / "dup.json"
        cert.write_text(json.dumps(dict(doc, zeta=zeta)))
        code, stdout, err = invoke(capsys, "cert", "verify", str(cert))
        assert code == 2 and stdout == "" and "duplicate" in err


# -- fool -------------------------------------------------------------------


def test_fool_params(capsys):
    code, stdout, _ = invoke(capsys, "fool", "params", "--c", "4", "--d", "4", "--k", "2")
    assert code == 0
    assert stdout == (
        "i 3\nq_bits 65537\nq -\nb_iterates 6 20 184756\nthresholds 16 64 256\n"
    )


def test_fool_params_tower_too_tall_is_a_usage_error(capsys):
    # k = 215 forces i = 4, and a^(4)(4) = 2^(2^65536) cannot be built
    code, stdout, err = invoke(capsys, "fool", "params", "--c", "4", "--d", "4", "--k", "215")
    assert (code, stdout) == (2, "")
    assert err == "error: a^(4)(4) exceeds representable size (tower of height 4)\n"


@pytest.mark.parametrize("c", ["15000", "10000000"])
def test_fool_params_b_iterate_too_large_is_a_usage_error(capsys, c):
    # b(15000) has 4,514 decimal digits, past the 4,300 Python prints;
    # b(10^7) is far larger
    code, stdout, err = invoke(capsys, "fool", "params", "--c", c, "--d", c, "--k", "2")
    assert (code, stdout) == (2, "")
    assert err == f"error: b^(1)({c}) exceeds representable size (b of {c} > 14000)\n"


def test_fool_params_prints_the_largest_b_iterate_it_takes(capsys):
    code, stdout, err = invoke(capsys, "fool", "params", "--c", "14000", "--d", "14000", "--k", "2")
    assert (code, err) == (0, "")
    assert stdout.splitlines() == [
        "i 1", "q_bits 14001", "q -",
        f"b_iterates {math.comb(14000, 7000)}", "thresholds 16",
    ]


# -- plumbing ---------------------------------------------------------------


def test_usage_errors_exit_2(tmp_path, capsys):
    assert invoke(capsys, "crystal", "mine")[0] == 2  # missing --k
    assert invoke(capsys, "nonsense")[0] == 2
    bad = tmp_path / "bad.st"
    bad.write_text("not a tensor\n")
    code, _, err = invoke(capsys, "crystal", "verify", "--k", "2", str(bad))
    assert code == 2 and "error" in err
    code, _, err = invoke(capsys, "hom", str(tmp_path / "missing.json"), str(bad))
    assert code == 2


def test_internal_error_exits_3(monkeypatch, capsys):
    import crystalforge.cli as cli

    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_fool_params", crash)
    code, stdout, err = invoke(capsys, "fool", "params", "--c", "4", "--d", "4", "--k", "2")
    assert code == 3 and stdout == ""
    assert err == "internal error: RuntimeError: boom\n"


@pytest.mark.parametrize("entry", ["main", "module"])
def test_entry_points_exit_with_the_code_of_run(monkeypatch, capsys, entry):
    import crystalforge.cli as cli

    def call():
        if entry == "main":
            cli.main()
        else:
            # the module is imported already, which runpy warns about
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                runpy.run_module("crystalforge.cli", run_name="__main__")

    for argv, code, out in (
        (["digraph", "clique", "--q", "2"], 0, digraph_to_json(clique(2))),
        (["nonsense"], 2, ""),
    ):
        monkeypatch.setattr(sys, "argv", ["crystalforge", *argv])
        with pytest.raises(SystemExit) as exc:
            call()
        assert exc.value.code == code
        assert capsys.readouterr().out == out


def test_jobs_flag_is_a_usage_error(capsys):
    code, stdout, _ = invoke(capsys, "--jobs", "2", "fool", "params", "--c", "4", "--d", "4", "--k", "2")
    assert code == 2 and stdout == ""


# -- surface ----------------------------------------------------------------

USAGE = {
    ("crystal", "mine"): "[-h] --k K [-o PATH]",
    ("crystal", "verify"): "[-h] --k K tensor",
    ("crystal", "shadow"): "[-h] --k K [-o PATH] tensor",
    ("crystal", "crystalise"): "[-h] --q Q [-o PATH] tensor",
    ("shadows", "check"): "[-h] system",
    ("shadows", "realise"): "[-h] [-o PATH] system",
    ("digraph", "clique"): "[-h] --q Q [-o PATH]",
    ("digraph", "linegraph"): "[-h] [-o PATH] digraph",
    ("digraph", "shift"): "[-h] --q Q --i I [-o PATH]",
    ("hom",): "[-h] instance template",
    ("relax", "blp"): "[-h] --k K instance template",
    ("relax", "aip"): "[-h] --k K instance template",
    ("relax", "ba"): "[-h] --k K instance template",
    ("cert", "from-crystal"): "[-h] --k K [-o PATH] crystal instance",
    ("cert", "verify"): "[-h] certificate",
    ("cert", "push-hom"): "[-h] [-o PATH] certificate map target",
    ("cert", "linegraph"): "[-h] [-o PATH] certificate",
    ("fool", "params"): "[-h] --c C --d D --k K [-o PATH]",
}


@pytest.mark.parametrize("verb", sorted(USAGE), ids=" ".join)
def test_verb_usage_line(monkeypatch, capsys, verb):
    monkeypatch.setenv("COLUMNS", "200")  # keep argparse from wrapping
    code, stdout, err = invoke(capsys, *verb, "--help")
    assert code == 0 and err == ""
    assert stdout.splitlines()[0] == f"usage: crystalforge {' '.join(verb)} {USAGE[verb]}"


# a call that exits 0 of each verb with an int option
VALID = {
    ("crystal", "mine"): ["--k", "2"],
    ("crystal", "verify"): ["--k", "2", "u.st"],
    ("crystal", "shadow"): ["--k", "2", "c4.st"],
    ("crystal", "crystalise"): ["--q", "3", "u.st"],
    ("digraph", "clique"): ["--q", "3"],
    ("digraph", "shift"): ["--q", "3", "--i", "1"],
    **{("relax", which): ["--k", "1", "k4.json", "k3.json"] for which in ("blp", "aip", "ba")},
    ("cert", "from-crystal"): ["--k", "2", "c4.st", "k4.json"],
    ("fool", "params"): ["--c", "4", "--d", "4", "--k", "2"],
}
# options whose range holds 0: the 0-shadow is the scalar total, and the
# shift digraph S_{q,0} is K_q
ZERO_IN_RANGE = {(("crystal", "shadow"), "--k"), (("digraph", "shift"), "--i")}


def test_every_int_option_below_its_range_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # the library refuses each of these; no handler checks a level
    monkeypatch.chdir(tmp_path)
    invoke(capsys, "crystal", "mine", "--k", "2", "-o", "u.st")
    invoke(capsys, "crystal", "crystalise", "--q", "4", "u.st", "-o", "c4.st")
    for n in (3, 4):
        write_graph(tmp_path / f"k{n}.json", clique(n))
    assert set(VALID) == {verb for verb, usage in USAGE.items() if " --" in usage}
    for verb, call in VALID.items():
        assert invoke(capsys, *verb, *call)[0] == 0, verb
        for option in re.findall(r"--[a-z]+", USAGE[verb]):
            for value in ("0", "-1"):
                argv = [*verb, *call]
                argv[argv.index(option) + 1] = value
                code, stdout, err = invoke(capsys, *argv)
                if value == "0" and (verb, option) in ZERO_IN_RANGE:
                    assert (code, err) == (0, "") and stdout, argv
                else:
                    assert (code, stdout) == (2, ""), argv
                    assert err.startswith("error:") and "internal error" not in err, argv


def test_cert_from_crystal_words_a_non_crystal_as_crystal_shadow_does(tmp_path, capsys):
    t = tmp_path / "t.st"
    t.write_text(dumps_st(IntTensor((3, 3, 3), {(1, 2, 3): 1})))  # affine, 2-projections differ
    k3 = write_graph(tmp_path / "k3.json", clique(3))
    err = "error: not a 2-crystal; projections differ at ((1, 2), (1, 3))\n"
    assert invoke(capsys, "crystal", "shadow", "--k", "2", str(t)) == (2, "", err)
    assert invoke(capsys, "cert", "from-crystal", "--k", "2", str(t), k3) == (2, "", err)


@pytest.mark.parametrize(
    "k, tensor, reason",
    [
        (2, IntTensor((4, 4), {(1, 2): 1}), "expected width 3, got 4"),
        (2, IntTensor((3, 3), {(1, 2): 2}), "entries sum to 2, not 1"),
        (2, IntTensor((3, 3), {(1, 2): 1}), "not a 1-crystal; projections differ at ((1,), (2,))"),
        (3, IntTensor((6, 6, 6), {(1, 1, 1): 1}), "the 2-shadow has a tie"),
    ],
    ids=["width", "total", "crystal", "hollow"],
)
def test_crystal_verify_no_reasons(tmp_path, capsys, k, tensor, reason):
    path = tmp_path / "t.st"
    path.write_text(dumps_st(tensor))
    code, stdout, err = invoke(capsys, "crystal", "verify", "--k", str(k), str(path))
    assert (code, stdout, err) == (1, "NO\n", reason + "\n")


def cycle_certificate(tmp_path, capsys):
    """A level-4 certificate for the directed 3-cycle into K10, written by the CLI."""
    c4 = tmp_path / "c4.st"
    invoke(capsys, "crystal", "mine", "--k", "4", "-o", str(c4))
    lifted = tmp_path / "c4q5.st"
    invoke(capsys, "crystal", "crystalise", "--q", "5", str(c4), "-o", str(lifted))
    cyc = write_graph(tmp_path / "cyc3.json", Digraph(3, frozenset({(1, 2), (2, 3), (3, 1)})))
    cert = tmp_path / "cert4.json"
    code, _, _ = invoke(capsys, "cert", "from-crystal", "--k", "4", str(lifted), cyc, "-o", str(cert))
    assert code == 0
    return cert


def test_cert_linegraph_writes_the_lowered_certificate(tmp_path, capsys):
    from crystalforge.certificate_desk import (
        certificate_from_json,
        certificate_to_json,
        transform_certificate_line_digraph,
    )

    cert = cycle_certificate(tmp_path, capsys)
    want = certificate_to_json(transform_certificate_line_digraph(certificate_from_json(cert.read_text())))
    assert invoke(capsys, "cert", "linegraph", str(cert)) == (0, want, "")


def test_cert_linegraph_over_the_edge_budget_is_a_usage_error(tmp_path, capsys, monkeypatch):
    import crystalforge.digraph_lab as dg

    cert = cycle_certificate(tmp_path, capsys)
    monkeypatch.setattr(dg, "_MAX_EDGES", 809)  # the line digraph of K10 has 10*9*9 = 810
    assert invoke(capsys, "cert", "linegraph", str(cert)) == (
        2, "", "error: the line digraph has 810 edges, over the budget of 809\n",
    )


def test_cert_verify_general_template(tmp_path, capsys):
    cert = cycle_certificate(tmp_path, capsys)
    lowered = tmp_path / "cert2.json"
    assert invoke(capsys, "cert", "linegraph", str(cert), "-o", str(lowered)) == (0, "", "")
    assert '"clique"' not in lowered.read_text()
    assert invoke(capsys, "cert", "verify", str(lowered)) == (0, "YES\n", "")


def sperner_certificate():
    """The q = 6 fooling chain: the level-4 certificate K6 -> K10 of the
    crystal H_4, lowered to level 2 on dK6 -> dK10, then pushed along the
    colouring dK10 -> K6 that maps the edge (u, v) to min(S_u - S_v), for
    the first ten 3-subsets S_1, ..., S_10 of [6]."""
    from crystalforge.certificate_desk import (
        certificate_from_crystal,
        transform_certificate_homomorphism,
        transform_certificate_line_digraph,
    )
    from crystalforge.crystal_mill import mine_hollow_shadowed_crystal
    from crystalforge.digraph_lab import line_digraph

    high = certificate_from_crystal(mine_hollow_shadowed_crystal(4, 6), clique(6), 4)
    low = transform_certificate_line_digraph(high)
    subsets = [set(s) for s in itertools.combinations(range(1, 7), 3)][:10]
    _, labels = line_digraph(clique(10))
    f = {i: min(subsets[u - 1] - subsets[v - 1]) for i, (u, v) in enumerate(labels, start=1)}
    return transform_certificate_homomorphism(low, f, clique(6))


def test_cert_verify_answers_the_same_for_both_spellings_of_a_clique_template(tmp_path, capsys):
    from crystalforge.certificate_desk import certificate_to_json

    text = certificate_to_json(sperner_certificate())
    doc = json.loads(text)
    assert doc["template"] == {"clique": 6}
    named = tmp_path / "named.json"
    named.write_text(text)
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps(dict(doc, template=json.loads(digraph_to_json(clique(6))))))
    # the colouring is not injective, so the pushed images put mass on
    # indices that do not refine their vertex tuple
    code, stdout, err = invoke(capsys, "cert", "verify", str(named))
    assert (code, stdout) == (1, "NO\n") and "does not refine" in err
    assert invoke(capsys, "cert", "verify", str(listed)) == (code, stdout, err)


def test_cert_push_hom_bad_map_is_a_format_error(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(k4_certificate_doc(tmp_path, capsys)))
    fmap = tmp_path / "f.json"
    fmap.write_text("[1, 2]")
    k4 = write_graph(tmp_path / "k4.json", clique(4))
    assert invoke(capsys, "cert", "push-hom", str(cert), str(fmap), k4) == (
        2,
        "",
        "error: bad homomorphism JSON (want an object of vertex pairs): "
        "'list' object has no attribute 'items'\n",
    )


# map spellings that int() would read as {1: 2, 2: 3, 3: 1}, each with its message
BAD_MAPS = {
    "all-three": ('{" 1": 2.0, "+2": 3.9, "3": true}', 'expected a vertex number, got " 1"'),
    "key-space": ('{" 1": 2, "2": 3, "3": 1}', 'expected a vertex number, got " 1"'),
    "key-plus": ('{"1": 2, "+2": 3, "3": 1}', 'expected a vertex number, got "+2"'),
    "key-leading-zero": ('{"1": 2, "02": 3, "3": 1}', 'expected a vertex number, got "02"'),
    "key-underscore": ('{"1": 2, "2": 3, "0_3": 1}', 'expected a vertex number, got "0_3"'),
    "key-arabic-indic": ('{"\u0661": 2, "2": 3, "3": 1}', 'expected a vertex number, got "\\u0661"'),
    "value-integral-float": ('{"1": 2.0, "2": 3, "3": 1}', "expected an integer, got 2.0"),
    "value-float": ('{"1": 2, "2": 3.9, "3": 1}', "expected an integer, got 3.9"),
    "value-bool": ('{"1": 2, "2": 3, "3": true}', "expected an integer, got true"),
    "value-string": ('{"1": 2, "2": "3", "3": 1}', 'expected an integer, got "3"'),
}


@pytest.mark.parametrize("text, reason", BAD_MAPS.values(), ids=list(BAD_MAPS))
def test_cert_push_hom_refuses_a_map_spelled_otherwise(tmp_path, capsys, text, reason):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(k4_certificate_doc(tmp_path, capsys)))
    k4 = write_graph(tmp_path / "k4.json", clique(4))
    fmap = tmp_path / "f.json"
    fmap.write_text('{"1": 2, "2": 3, "3": 1}')
    pushed = tmp_path / "pushed.json"
    assert invoke(capsys, "cert", "push-hom", str(cert), str(fmap), k4, "-o", str(pushed)) == (
        0, "", "")
    fmap.write_text(text)
    assert invoke(capsys, "cert", "push-hom", str(cert), str(fmap), k4) == (
        2, "", f"error: bad homomorphism JSON (want an object of vertex pairs): {reason}\n")


def test_output_into_missing_directory_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "k3.json"
    assert invoke(capsys, "digraph", "clique", "--q", "3", "-o", str(target)) == (
        2,
        "",
        f"error: cannot write {target}: [Errno 2] No such file or directory: '{target}'\n",
    )


# maps that stray off the K3 template's vertices 1..3: a key that is no
# vertex, and a repeated key, of which json.loads alone keeps the last
OFF_TEMPLATE_MAPS = {
    "extra-key": ('{"1": 1, "2": 2, "3": 3, "4": 9}',
                  "f maps 4, which is not a template vertex (1..3)"),
    "negative-key": ('{"1": 1, "2": 2, "3": 3, "4": 4, "-1": 0}',
                     "f maps -1, which is not a template vertex (1..3)"),
    "repeated-key": ('{"1": 2, "1": 1, "2": 2, "3": 3}', "bad homomorphism JSON "
                     '(want an object of vertex pairs): key "1" appears twice'),
}


@pytest.mark.parametrize("text, reason", OFF_TEMPLATE_MAPS.values(), ids=list(OFF_TEMPLATE_MAPS))
def test_cert_push_hom_refuses_a_map_off_the_template_vertices(tmp_path, capsys, text, reason):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(k4_certificate_doc(tmp_path, capsys)))
    k4 = write_graph(tmp_path / "k4.json", clique(4))
    fmap = tmp_path / "f.json"
    fmap.write_text(text)
    assert invoke(capsys, "cert", "push-hom", str(cert), str(fmap), k4) == (
        2, "", f"error: {reason}\n")


DIGRAPH_FAULTS = {
    "repeated-edge": ('{"vertices": 3, "edges": [[1, 2], [2, 3], [1, 2]]}',
                      "edge [1, 2] is listed twice"),
    "other-key": ('{"vertices": 3, "edges": [[1, 2]], "name": "path"}', 'unexpected key "name"'),
    "repeated-key": ('{"vertices": 9, "vertices": 3, "edges": [[1, 2]]}',
                     'key "vertices" appears twice'),
}


@pytest.mark.parametrize("text, reason", DIGRAPH_FAULTS.values(), ids=list(DIGRAPH_FAULTS))
def test_digraph_json_with_a_repeated_edge_or_another_key_is_a_format_error(
        tmp_path, capsys, text, reason):
    g = tmp_path / "g.json"
    g.write_text(text)
    for argv in (("digraph", "linegraph", str(g)), ("hom", str(g), str(g))):
        assert invoke(capsys, *argv) == (2, "", f"error: bad digraph JSON: {reason}\n")


# every budget that ``crystalforge.refuse_over`` checks: its module and
# name, a verb whose input counts ``count`` against it, what the refusal
# names and the exit code at the budget
H2Q4 = crystalise(mine_hollow_crystal(2), 4)
H2Q4_N = len(H2Q4.entries)
H2Q4_READS = math.comb(4, 2) * (H2Q4_N + 25)
BUDGETS = {
    "columns": ("relaxation_engine", "_MAX_COLUMNS",
                ("relax", "ba", "--k", "2", "k2.json", "k2.json"),
                20, "the level-2 system has 2^2*2^2 + 2*2 = 20 columns", 0),
    "clique-edges": ("digraph_lab", "_MAX_EDGES", ("digraph", "clique", "--q", "4"),
                     12, "K_4 has 4*3 = 12 edges", 0),
    "line-edges": ("digraph_lab", "_MAX_EDGES", ("digraph", "linegraph", "k3.json"),
                   12, "the line digraph has 12 edges", 0),
    "shift-edges": ("digraph_lab", "_MAX_EDGES", ("digraph", "shift", "--q", "3", "--i", "1"),
                    12, "S_{3,1} has 3*2^2 edges", 0),
    "domain-cells": ("digraph_lab", "_MAX_DOMAIN_CELLS", ("hom", "k4.json", "k3.json"),
                     12, "the search has 4*3 = 12 domain cells", 1),
    "crystal-reads": ("crystal_mill", "_MAX_CRYSTAL_READS",
                      ("crystal", "shadow", "--k", "2", "h2q4.st"),
                      H2Q4_READS, f"checking the 2-projections of {H2Q4_N} entries in q = 4 "
                      f"modes takes C(4,2)*({H2Q4_N}*1+25) = {H2Q4_READS} reads", 0),
    "realise-reads": ("shadow_realiser", "_MAX_REALISE_READS",
                      ("crystal", "crystalise", "--q", "3", "h2.st"),
                      84, "lifting 3 entries of dimension 2 to q = 3 takes 84 reads", 0),
}


@pytest.mark.parametrize("case", BUDGETS.values(), ids=list(BUDGETS))
def test_each_budget_takes_its_count_and_refuses_one_more(tmp_path, capsys, monkeypatch, case):
    module, budget, argv, count, what, code = case
    for n in (2, 3, 4):
        write_graph(tmp_path / f"k{n}.json", clique(n))
    (tmp_path / "h2.st").write_text(dumps_st(mine_hollow_crystal(2)))
    (tmp_path / "h2q4.st").write_text(dumps_st(H2Q4))
    monkeypatch.chdir(tmp_path)
    mod = importlib.import_module(f"crystalforge.{module}")
    monkeypatch.setattr(mod, budget, count)
    got, _, err = invoke(capsys, *argv)
    assert (got, err) == (code, "")
    monkeypatch.setattr(mod, budget, count - 1)
    assert invoke(capsys, *argv) == (2, "", f"error: {what}, over the budget of {count - 1}\n")


def test_the_budget_sweep_covers_every_refuse_over_call():
    src = Path(__file__).resolve().parents[1] / "src" / "crystalforge"
    calls = sorted((path.stem, node.args[1].id) for path in src.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Call)
                   and getattr(node.func, "id", None) == "refuse_over")
    assert calls == sorted((module, budget) for module, budget, *_ in BUDGETS.values())

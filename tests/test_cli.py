import json
import math
import time

import pytest

from crystalforge.cli import run
from crystalforge.digraph_lab import Digraph, clique, digraph_from_json, digraph_to_json
from crystalforge.shadow_realiser import increasing_tuples, ShadowSystem, system_to_json
from crystalforge.tensor_core import IntTensor, dumps_st, loads_st, project, read_st, write_st


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
    t = read_st(out)
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
    assert loads_st(stdout) == read_st(mined)


def test_crystal_mine_deterministic(tmp_path, capsys):
    _, out1, _ = invoke(capsys, "crystal", "mine", "--k", "3")
    _, out2, _ = invoke(capsys, "crystal", "mine", "--k", "3")
    assert out1 == out2


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
    w = read_st(out)
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
    write_st(tensor, path)
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


def test_cert_verify_general_template(tmp_path, capsys):
    cert = cycle_certificate(tmp_path, capsys)
    lowered = tmp_path / "cert2.json"
    assert invoke(capsys, "cert", "linegraph", str(cert), "-o", str(lowered)) == (0, "", "")
    assert '"clique"' not in lowered.read_text()
    assert invoke(capsys, "cert", "verify", str(lowered)) == (0, "YES\n", "")


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


def test_output_into_missing_directory_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "k3.json"
    assert invoke(capsys, "digraph", "clique", "--q", "3", "-o", str(target)) == (
        2,
        "",
        f"error: cannot write {target}: [Errno 2] No such file or directory: '{target}'\n",
    )

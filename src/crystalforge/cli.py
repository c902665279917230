"""Command-line front door.

One verb per library operation; exit codes: 0 success/YES, 1 verified
NO/false, 2 usage or format error, 3 internal error.  YES/NO decisions
print a single token on stdout; diagnostics go to stderr.  All output is
deterministic for a fixed invocation.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import certificate_desk as cd
from . import crystal_mill as cm
from . import digraph_lab as dg
from . import relaxation_engine as rx
from . import shadow_realiser as sr
from . import tensor_core as tc


class _CliError(Exception):
    """Usage/format problem; maps to exit code 2."""


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise _CliError(f"cannot write {out_path}: {exc}") from exc


def _load_tensor(path: str) -> tc.IntTensor:
    return tc.loads_st(_read_text(path))


def _load_digraph(path: str) -> dg.Digraph:
    return dg.digraph_from_json(_read_text(path))


def _decision(answer: bool) -> int:
    print("YES" if answer else "NO")
    return 0 if answer else 1


# ---------------------------------------------------------------------------
# crystal
# ---------------------------------------------------------------------------


def _cmd_crystal_mine(args) -> int:
    c = cm.mine_hollow_crystal(args.k)
    _emit(tc.dumps_st(c), args.output)
    return 0


def _cmd_crystal_verify(args) -> int:
    """Check the miner's contract: a hollow affine (k-1)-crystal of
    dimension k and width (k^2+k)/2."""
    k = args.k
    if k < 1:
        raise _CliError(f"--k must be >= 1, got {k}")
    c = _load_tensor(args.tensor)
    if not c.is_cubical() or c.dim != k:
        print("NO")
        print(f"expected a cubical tensor of dimension {k}, got shape {c.shape}", file=sys.stderr)
        return 1
    if c.shape[0] != (k * k + k) // 2:
        print("NO")
        print(f"expected width {(k * k + k) // 2}, got {c.shape[0]}", file=sys.stderr)
        return 1
    if not tc.is_affine(c):
        print("NO")
        print(f"entries sum to {tc.total(c)}, not 1", file=sys.stderr)
        return 1
    rep = cm.is_crystal(c, k - 1)
    if not rep.is_crystal:
        print("NO")
        print(f"not a {k - 1}-crystal; projections differ at {rep.failing_pair}", file=sys.stderr)
        return 1
    if not tc.is_hollow(rep.shadow):
        print("NO")
        print(f"the {k - 1}-shadow has a tie", file=sys.stderr)
        return 1
    print("YES")
    return 0


def _cmd_crystal_shadow(args) -> int:
    c = _load_tensor(args.tensor)
    _emit(tc.dumps_st(cm.shadow(c, args.k)), args.output)
    return 0


def _cmd_crystal_crystalise(args) -> int:
    s = _load_tensor(args.tensor)
    _emit(tc.dumps_st(cm.crystalise(s, args.q)), args.output)
    return 0


# ---------------------------------------------------------------------------
# shadows
# ---------------------------------------------------------------------------


def _load_system(path: str) -> sr.ShadowSystem:
    import os

    return sr.system_from_json(_read_text(path), base_dir=os.path.dirname(os.path.abspath(path)))


def _cmd_shadows_check(args) -> int:
    sys_ = _load_system(args.system)
    ok, quad = sr.is_realistic(sys_, witness=True)
    if not ok:
        print(f"compatibility fails at (i, j, r, s) = {quad}", file=sys.stderr)
    return _decision(ok)


def _cmd_shadows_realise(args) -> int:
    sys_ = _load_system(args.system)
    try:
        c = sr.realise(sys_)
    except sr.NotRealistic as exc:
        print(str(exc), file=sys.stderr)
        return 1
    _emit(tc.dumps_st(c), args.output)
    return 0


# ---------------------------------------------------------------------------
# digraph / hom
# ---------------------------------------------------------------------------


def _cmd_digraph_clique(args) -> int:
    _emit(dg.digraph_to_json(dg.clique(args.q)), args.output)
    return 0


def _cmd_digraph_linegraph(args) -> int:
    g, _labels = dg.line_digraph(_load_digraph(args.digraph))
    _emit(dg.digraph_to_json(g), args.output)
    return 0


def _cmd_digraph_shift(args) -> int:
    _emit(dg.digraph_to_json(dg.shift_digraph(args.q, args.i)), args.output)
    return 0


def _cmd_hom(args) -> int:
    x = _load_digraph(args.instance)
    a = _load_digraph(args.template)
    f = dg.homomorphism_exists(x, a)
    if f is None:
        print("NO")
        return 1
    print(json.dumps({str(v): f[v] for v in sorted(f)}))
    return 0


# ---------------------------------------------------------------------------
# relax
# ---------------------------------------------------------------------------


def _cmd_relax(args) -> int:
    if args.k < 1:
        raise _CliError(f"--k must be >= 1, got {args.k}")
    x = _load_digraph(args.instance)
    a = _load_digraph(args.template)
    decide = {"blp": rx.decide_blp, "aip": rx.decide_aip, "ba": rx.decide_ba}[args.which]
    return _decision(decide(x, a, args.k))


# ---------------------------------------------------------------------------
# cert
# ---------------------------------------------------------------------------


def _cmd_cert_from_crystal(args) -> int:
    c = _load_tensor(args.crystal)
    x = _load_digraph(args.instance)
    cert = cd.certificate_from_crystal(c, x, args.k)
    _emit(cd.certificate_to_json(cert), args.output)
    return 0


def _cmd_cert_verify(args) -> int:
    cert = cd.certificate_from_json(_read_text(args.certificate))
    if cert.template_clique is not None:
        ok, why = cd.verify_clique_certificate(cert, cert.instance, cert.template_clique)
    else:
        ok, why = cd.verify_zaff_certificate_general(cert, cert.instance, cert.template)
    if not ok:
        print(why, file=sys.stderr)
    return _decision(ok)


def _cmd_cert_push_hom(args) -> int:
    cert = cd.certificate_from_json(_read_text(args.certificate))
    try:
        raw = json.loads(_read_text(args.map))
        f = {int(u): int(v) for u, v in raw.items()}
    except (AttributeError, TypeError, ValueError) as exc:
        raise _CliError(f"bad homomorphism JSON (want an object of vertex pairs): {exc}")
    b = _load_digraph(args.target)
    _emit(cd.certificate_to_json(cd.transform_certificate_homomorphism(cert, f, b)), args.output)
    return 0


def _cmd_cert_linegraph(args) -> int:
    cert = cd.certificate_from_json(_read_text(args.certificate))
    _emit(cd.certificate_to_json(cd.transform_certificate_line_digraph(cert)), args.output)
    return 0


# ---------------------------------------------------------------------------
# fool
# ---------------------------------------------------------------------------


def _cmd_fool_params(args) -> int:
    p = dg.fooling_parameters(args.c, args.d, args.k)
    lines = [
        f"i {p.i}",
        f"q_bits {p.q_bits}",
        f"q {p.q if p.q is not None else '-'}",
        "b_iterates " + " ".join(str(b) for b in p.b_iterates),
        "thresholds " + " ".join(str(t) for t in p.thresholds),
    ]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="crystalforge")
    sub = top.add_subparsers(dest="group", required=True)

    def out(p):
        p.add_argument("-o", "--output", metavar="PATH", default=None)

    crystal = sub.add_parser("crystal").add_subparsers(dest="verb", required=True)
    p = crystal.add_parser("mine")
    p.add_argument("--k", type=int, required=True)
    out(p)
    p.set_defaults(func=_cmd_crystal_mine)
    p = crystal.add_parser("verify")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("tensor")
    p.set_defaults(func=_cmd_crystal_verify)
    p = crystal.add_parser("shadow")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("tensor")
    out(p)
    p.set_defaults(func=_cmd_crystal_shadow)
    p = crystal.add_parser("crystalise")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("tensor")
    out(p)
    p.set_defaults(func=_cmd_crystal_crystalise)

    shadows = sub.add_parser("shadows").add_subparsers(dest="verb", required=True)
    p = shadows.add_parser("check")
    p.add_argument("system")
    p.set_defaults(func=_cmd_shadows_check)
    p = shadows.add_parser("realise")
    p.add_argument("system")
    out(p)
    p.set_defaults(func=_cmd_shadows_realise)

    digraph = sub.add_parser("digraph").add_subparsers(dest="verb", required=True)
    p = digraph.add_parser("clique")
    p.add_argument("--q", type=int, required=True, help="number of vertices")
    out(p)
    p.set_defaults(func=_cmd_digraph_clique)
    p = digraph.add_parser("linegraph")
    p.add_argument("digraph")
    out(p)
    p.set_defaults(func=_cmd_digraph_linegraph)
    p = digraph.add_parser("shift")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    out(p)
    p.set_defaults(func=_cmd_digraph_shift)

    p = sub.add_parser("hom")
    p.add_argument("instance")
    p.add_argument("template")
    p.set_defaults(func=_cmd_hom)

    relax = sub.add_parser("relax").add_subparsers(dest="which", required=True)
    for which in ("blp", "aip", "ba"):
        p = relax.add_parser(which)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("instance")
        p.add_argument("template")
        p.set_defaults(func=_cmd_relax)

    cert = sub.add_parser("cert").add_subparsers(dest="verb", required=True)
    p = cert.add_parser("from-crystal")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("crystal")
    p.add_argument("instance")
    out(p)
    p.set_defaults(func=_cmd_cert_from_crystal)
    p = cert.add_parser("verify")
    p.add_argument("certificate")
    p.set_defaults(func=_cmd_cert_verify)
    p = cert.add_parser("push-hom")
    p.add_argument("certificate")
    p.add_argument("map", help="JSON object mapping template vertices to target vertices")
    p.add_argument("target")
    out(p)
    p.set_defaults(func=_cmd_cert_push_hom)
    p = cert.add_parser("linegraph")
    p.add_argument("certificate")
    out(p)
    p.set_defaults(func=_cmd_cert_linegraph)

    fool = sub.add_parser("fool").add_subparsers(dest="verb", required=True)
    p = fool.add_parser("params")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    out(p)
    p.set_defaults(func=_cmd_fool_params)

    return top


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (_CliError, tc.TensorError, dg.DigraphError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must not read as exit 1, "verified NO"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

"""Command-line front door.

One verb per library operation; exit codes: 0 success/YES, 1 verified
NO/false, 2 usage or format error, 3 internal error.  YES/NO decisions
print a single token on stdout; diagnostics go to stderr.  All output is
deterministic for a fixed invocation.

A verb handler writes nothing: it returns its result, and ``run`` alone
writes output and picks the exit code.  A handler returns either

- a ``str``, the verb's output: written to ``-o PATH`` or to stdout, exit 0;
- a pair ``(ok, reason)``, a decision: when ``ok`` is false and ``reason``
  is not None, the reason goes to stderr; then ``YES`` or ``NO`` goes to
  stdout, exit 0 or 1.

``shadow_realiser.NotRealistic`` is a verified NO without a token: its
message goes to stderr, exit 1.  Usage and format errors exit 2, and any
other exception exits 3.
"""

from __future__ import annotations

import argparse
import json
import os
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


def _load_system(path: str) -> sr.ShadowSystem:
    return sr.system_from_json(_read_text(path), base_dir=os.path.dirname(os.path.abspath(path)))


def _load_certificate(path: str) -> cd.ZaffCertificate:
    return cd.certificate_from_json(_read_text(path))


# ---------------------------------------------------------------------------
# verbs with logic of their own; the rest are one expression in the parser
# ---------------------------------------------------------------------------


def _cmd_crystal_verify(args):
    """Check the miner's contract (``crystal_mill.hollow_crystal_fault``)."""
    if args.k < 1:
        raise _CliError(f"--k must be >= 1, got {args.k}")
    fault = cm.hollow_crystal_fault(_load_tensor(args.tensor), args.k)
    return fault is None, fault


def _cmd_shadows_check(args):
    ok, quad = sr.is_realistic(_load_system(args.system))
    return ok, f"compatibility fails at (i, j, r, s) = {quad}"


def _cmd_hom(args):
    f = dg.homomorphism_exists(_load_digraph(args.instance), _load_digraph(args.template))
    if f is None:
        return False, None
    return json.dumps({str(v): f[v] for v in sorted(f)}) + "\n"


def _cmd_relax(args):
    if args.k < 1:
        raise _CliError(f"--k must be >= 1, got {args.k}")
    x = _load_digraph(args.instance)
    a = _load_digraph(args.template)
    decide = {"blp": rx.decide_blp, "aip": rx.decide_aip, "ba": rx.decide_ba}[args.which]
    return decide(x, a, args.k), None


def _cmd_cert_verify(args):
    cert = _load_certificate(args.certificate)
    if cert.template_clique is not None:
        return cd.verify_clique_certificate(cert, cert.instance, cert.template_clique)
    return cd.verify_zaff_certificate_general(cert, cert.instance, cert.template)


def _cmd_cert_push_hom(args):
    cert = _load_certificate(args.certificate)
    try:
        raw = json.loads(_read_text(args.map))
        f = {int(u): int(v) for u, v in raw.items()}
    except (AttributeError, TypeError, ValueError) as exc:
        raise _CliError(f"bad homomorphism JSON (want an object of vertex pairs): {exc}")
    b = _load_digraph(args.target)
    return cd.certificate_to_json(cd.transform_certificate_homomorphism(cert, f, b))


def _cmd_fool_params(args):
    p = dg.fooling_parameters(args.c, args.d, args.k)
    lines = [
        f"i {p.i}",
        f"q_bits {p.q_bits}",
        f"q {p.q if p.q is not None else '-'}",
        "b_iterates " + " ".join(str(b) for b in p.b_iterates),
        "thresholds " + " ".join(str(t) for t in p.thresholds),
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="crystalforge")
    sub = top.add_subparsers(dest="group", required=True)

    def group(name, dest="verb"):
        return sub.add_parser(name).add_subparsers(dest=dest, required=True)

    def verb(parent, name, func, *params, output=False):
        """``--x`` is a required int option, any other name a positional;
        ``(name, help)`` adds a help string."""
        p = parent.add_parser(name)
        for param in params:
            arg, help_ = param if isinstance(param, tuple) else (param, None)
            if arg.startswith("--"):
                p.add_argument(arg, type=int, required=True, help=help_)
            else:
                p.add_argument(arg, help=help_)
        if output:
            p.add_argument("-o", "--output", metavar="PATH", default=None)
        p.set_defaults(func=func)

    crystal = group("crystal")
    verb(crystal, "mine", lambda a: tc.dumps_st(cm.mine_hollow_crystal(a.k)), "--k", output=True)
    verb(crystal, "verify", _cmd_crystal_verify, "--k", "tensor")
    verb(crystal, "shadow", lambda a: tc.dumps_st(cm.shadow(_load_tensor(a.tensor), a.k)),
         "--k", "tensor", output=True)
    verb(crystal, "crystalise", lambda a: tc.dumps_st(cm.crystalise(_load_tensor(a.tensor), a.q)),
         "--q", "tensor", output=True)

    shadows = group("shadows")
    verb(shadows, "check", _cmd_shadows_check, "system")
    verb(shadows, "realise", lambda a: tc.dumps_st(sr.realise(_load_system(a.system))),
         "system", output=True)

    digraph = group("digraph")
    verb(digraph, "clique", lambda a: dg.digraph_to_json(dg.clique(a.q)),
         ("--q", "number of vertices"), output=True)
    verb(digraph, "linegraph",
         lambda a: dg.digraph_to_json(dg.line_digraph(_load_digraph(a.digraph))[0]),
         "digraph", output=True)
    verb(digraph, "shift", lambda a: dg.digraph_to_json(dg.shift_digraph(a.q, a.i)),
         "--q", "--i", output=True)

    verb(sub, "hom", _cmd_hom, "instance", "template")

    relax = group("relax", dest="which")  # the dest names its missing-verb error
    for which in ("blp", "aip", "ba"):
        verb(relax, which, _cmd_relax, "--k", "instance", "template")

    cert = group("cert")
    verb(cert, "from-crystal",
         lambda a: cd.certificate_to_json(
             cd.certificate_from_crystal(_load_tensor(a.crystal), _load_digraph(a.instance), a.k)),
         "--k", "crystal", "instance", output=True)
    verb(cert, "verify", _cmd_cert_verify, "certificate")
    verb(cert, "push-hom", _cmd_cert_push_hom, "certificate",
         ("map", "JSON object mapping template vertices to target vertices"), "target", output=True)
    verb(cert, "linegraph",
         lambda a: cd.certificate_to_json(
             cd.transform_certificate_line_digraph(_load_certificate(a.certificate))),
         "certificate", output=True)

    verb(group("fool"), "params", _cmd_fool_params, "--c", "--d", "--k", output=True)

    return top


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        result = args.func(args)
        if isinstance(result, str):
            _emit(result, getattr(args, "output", None))
            return 0
        ok, reason = result
        if not ok and reason is not None:
            print(reason, file=sys.stderr)
        print("YES" if ok else "NO")
        return 0 if ok else 1
    except sr.NotRealistic as exc:
        print(str(exc), file=sys.stderr)
        return 1
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

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
other exception exits 3.  Handlers validate nothing the library refuses:
a level out of range, an input over a size budget or a malformed file is
the library's ``TensorError`` or ``DigraphError``, and ``run`` maps it to
exit 2.

A process runs one verb, so the module imports only the standard library,
and each handler imports the crystalforge modules it calls in its body:
``fool params`` never loads the LP engine, and no ``cert`` verb does.
``run`` maps an exception to its exit code without importing anything
either: it looks each exception class up in ``sys.modules``, since a class
whose module was never loaded cannot have been raised.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


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


def _load_tensor(path: str):
    from . import tensor_core as tc
    return tc.loads_st(_read_text(path))


def _load_digraph(path: str):
    from . import digraph_lab as dg
    return dg.digraph_from_json(_read_text(path))


def _load_system(path: str):
    from . import shadow_realiser as sr
    return sr.system_from_json(_read_text(path), base_dir=os.path.dirname(os.path.abspath(path)))


def _load_certificate(path: str):
    from . import certificate_desk as cd
    return cd.certificate_from_json(_read_text(path))


def _dumps_st(t) -> str:
    from . import tensor_core as tc
    return tc.dumps_st(t)


# ---------------------------------------------------------------------------
# verb handlers; each imports the crystalforge modules it calls
# ---------------------------------------------------------------------------


def _cmd_crystal_mine(args):
    from . import crystal_mill as cm
    return _dumps_st(cm.mine_hollow_crystal(args.k))


def _cmd_crystal_verify(args):
    """Check the miner's contract (``crystal_mill.hollow_crystal_fault``)."""
    from . import crystal_mill as cm
    fault = cm.hollow_crystal_fault(_load_tensor(args.tensor), args.k)
    return fault is None, fault


def _cmd_crystal_shadow(args):
    from . import crystal_mill as cm
    return _dumps_st(cm.shadow(_load_tensor(args.tensor), args.k))


def _cmd_crystal_crystalise(args):
    from . import crystal_mill as cm
    return _dumps_st(cm.crystalise(_load_tensor(args.tensor), args.q))


def _cmd_shadows_check(args):
    from . import shadow_realiser as sr
    ok, quad = sr.is_realistic(_load_system(args.system))
    return ok, f"compatibility fails at (i, j, r, s) = {quad}"


def _cmd_shadows_realise(args):
    from . import shadow_realiser as sr
    return _dumps_st(sr.realise(_load_system(args.system)))


def _cmd_digraph_clique(args):
    from . import digraph_lab as dg
    return dg.digraph_to_json(dg.clique(args.q))


def _cmd_digraph_linegraph(args):
    from . import digraph_lab as dg
    return dg.digraph_to_json(dg.line_digraph(_load_digraph(args.digraph))[0])


def _cmd_digraph_shift(args):
    from . import digraph_lab as dg
    return dg.digraph_to_json(dg.shift_digraph(args.q, args.i))


def _cmd_hom(args):
    from . import digraph_lab as dg
    f = dg.homomorphism_exists(_load_digraph(args.instance), _load_digraph(args.template))
    if f is None:
        return False, None
    return json.dumps({str(v): f[v] for v in sorted(f)}) + "\n"


def _cmd_relax(args):
    from . import relaxation_engine as rx
    x = _load_digraph(args.instance)
    a = _load_digraph(args.template)
    decide = {"blp": rx.decide_blp, "aip": rx.decide_aip, "ba": rx.decide_ba}[args.which]
    return decide(x, a, args.k), None


def _cmd_cert_from_crystal(args):
    from . import certificate_desk as cd
    cert = cd.certificate_from_crystal(
        _load_tensor(args.crystal), _load_digraph(args.instance), args.k)
    return cd.certificate_to_json(cert)


def _cmd_cert_verify(args):
    from . import certificate_desk as cd
    cert = _load_certificate(args.certificate)
    n = cert.template_clique
    if n is not None:
        return cd.verify_clique_certificate(cert, cert.instance, n)
    return cd.verify_zaff_certificate_general(cert, cert.instance, cert.template)


def _cmd_cert_push_hom(args):
    from . import certificate_desk as cd
    cert = _load_certificate(args.certificate)
    f = cd.homomorphism_from_json(_read_text(args.map))
    b = _load_digraph(args.target)
    return cd.certificate_to_json(cd.transform_certificate_homomorphism(cert, f, b))


def _cmd_cert_linegraph(args):
    from . import certificate_desk as cd
    cert = _load_certificate(args.certificate)
    return cd.certificate_to_json(cd.transform_certificate_line_digraph(cert))


def _cmd_fool_params(args):
    from . import digraph_lab as dg
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
    verb(crystal, "mine", _cmd_crystal_mine, "--k", output=True)
    verb(crystal, "verify", _cmd_crystal_verify, "--k", "tensor")
    verb(crystal, "shadow", _cmd_crystal_shadow, "--k", "tensor", output=True)
    verb(crystal, "crystalise", _cmd_crystal_crystalise, "--q", "tensor", output=True)

    shadows = group("shadows")
    verb(shadows, "check", _cmd_shadows_check, "system")
    verb(shadows, "realise", _cmd_shadows_realise, "system", output=True)

    digraph = group("digraph")
    verb(digraph, "clique", _cmd_digraph_clique, ("--q", "number of vertices"), output=True)
    verb(digraph, "linegraph", _cmd_digraph_linegraph, "digraph", output=True)
    verb(digraph, "shift", _cmd_digraph_shift, "--q", "--i", output=True)

    verb(sub, "hom", _cmd_hom, "instance", "template")

    relax = group("relax", dest="which")  # the dest names its missing-verb error
    for which in ("blp", "aip", "ba"):
        verb(relax, which, _cmd_relax, "--k", "instance", "template")

    cert = group("cert")
    verb(cert, "from-crystal", _cmd_cert_from_crystal, "--k", "crystal", "instance", output=True)
    verb(cert, "verify", _cmd_cert_verify, "certificate")
    verb(cert, "push-hom", _cmd_cert_push_hom, "certificate",
         ("map", "JSON object mapping template vertices to target vertices"), "target", output=True)
    verb(cert, "linegraph", _cmd_cert_linegraph, "certificate", output=True)

    verb(group("fool"), "params", _cmd_fool_params, "--c", "--d", "--k", output=True)

    return top


def _raised(exc: Exception, module: str, name: str) -> bool:
    """Whether ``exc`` is a ``crystalforge.<module>.<name>``.  The class is
    looked up in ``sys.modules``, never imported: if its module was not
    loaded, nothing raised it."""
    mod = sys.modules.get(f"crystalforge.{module}")
    return mod is not None and isinstance(exc, getattr(mod, name))


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
    except Exception as exc:
        # NotRealistic is a TensorError, so it is tested first
        if _raised(exc, "shadow_realiser", "NotRealistic"):
            print(str(exc), file=sys.stderr)
            return 1
        if (isinstance(exc, _CliError)
                or _raised(exc, "tensor_core", "TensorError")
                or _raised(exc, "digraph_lab", "DigraphError")):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # a crash must not read as exit 1, "verified NO"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

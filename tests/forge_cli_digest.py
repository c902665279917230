"""One digest of the forge-cli workload's outputs, to compare two trees.

    python3 tests/forge_cli_digest.py SEED

Runs the warm-up and the operations of the forge-cli workload, as
``perfbench/workloads.py`` builds them from SEED (the file is loaded by
path, as it is), against the ``src/`` of the checkout that holds this
script.  Each operation is a CLI subprocess in one fresh temporary work
directory.  The script prints one sha256 over every operation's label,
exit code, stdout and stderr, in order, and then over every file left in
the work directory, by name.  Two trees that print the same digest at a
seed gave byte-identical exit codes, output and files there.  Nothing is
timed and no answer is checked: ``perfbench/run.py`` does both.

The file name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")


def _workloads():
    sys.path.insert(0, BENCH)  # workloads.py imports its sibling oracle.py
    spec = importlib.util.spec_from_file_location("workloads", os.path.join(BENCH, "workloads.py"))
    module = sys.modules["workloads"] = importlib.util.module_from_spec(spec)  # for @dataclass
    spec.loader.exec_module(module)
    return module


def digest(seed: int) -> str:
    workloads = _workloads()
    h = hashlib.sha256()

    def add(data: bytes) -> None:
        h.update(b"%d:" % len(data) + data)  # length-prefixed, so no two parts run together

    with tempfile.TemporaryDirectory() as work:
        # the hash seed the benchmark gives its CLI children
        cli = workloads.Cli(ROOT, work, str(seed % 2**32))
        warm, ops = workloads.forge_cli(cli, seed)
        for op in [warm, *ops]:
            code, out, err = op.run()
            for part in (op.label, str(code), out, err):
                add(part.replace(work, "<work>").encode())
        for name in sorted(os.listdir(work)):
            add(name.encode())
            with open(os.path.join(work, name), "rb") as fh:
                add(fh.read())
    return h.hexdigest()


def main(argv: list[str]) -> int:
    try:
        (seed,) = map(int, argv)
    except ValueError:
        print("usage: forge_cli_digest.py SEED", file=sys.stderr)
        return 2
    print(digest(seed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

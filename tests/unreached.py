"""List every function in `src/cocomem` that the shipped CLI paths never
enter.

    python tests/unreached.py

In one process, under a `sys.settrace` tracer of call events, it runs
`cocomem run --seeds 1`, `cocomem verify` and `cocomem bounds` on each
config in `configs/`.  Then it compiles each module of the package and
prints, as `path:line name`, every code object in it (function, method,
lambda, comprehension or class body) that no call entered, and a count.
Last it prints the total line count of `src/cocomem/*.py` (as
`wc -l` counts them), the other yardstick of how much code ships.
A command that exits nonzero is reported on stderr and makes the script
exit 1.  The script only measures; pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cocomem"


def code_objects(path: Path):
    """Every code object nested in the module compiled from `path`."""
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        for const in stack.pop().co_consts:
            if isinstance(const, types.CodeType):
                stack.append(const)
                yield const


def _key(code: types.CodeType) -> tuple[str, int, str]:
    return code.co_filename, code.co_firstlineno, code.co_name


def run_commands(out_dir: str) -> tuple[set, list[str]]:
    """(keys of the code objects entered, failed commands) of the CLI runs."""
    entered: set = set()

    def tracer(frame, event, arg):
        entered.add(_key(frame.f_code))

    failed = []
    sys.settrace(tracer)
    try:
        from cocomem.cli import main

        for config in sorted((ROOT / "configs").glob("*.json")):
            for argv in (["run", "--config", str(config), "--seeds", "1", "--out", out_dir],
                         ["verify", "--config", str(config)],
                         ["bounds", "--config", str(config)]):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
                if code != 0:
                    failed.append(f"cocomem {argv[0]} {config.name} exited {code}")
    finally:
        sys.settrace(None)
    return entered, failed


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    with tempfile.TemporaryDirectory() as out_dir:
        entered, failed = run_commands(out_dir)
    total, lines, unreached = 0, 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        lines += path.read_bytes().count(b"\n")
        for code in code_objects(path):
            total += 1
            if _key(code) not in entered:
                name = getattr(code, "co_qualname", code.co_name)
                unreached.append((str(path.relative_to(ROOT)), code.co_firstlineno, name))
    for path, line, name in sorted(unreached):
        print(f"{path}:{line} {name}")
    print(f"{len(unreached)} of {total} code objects in src/cocomem never entered")
    print(f"{lines} lines in src/cocomem/*.py")
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

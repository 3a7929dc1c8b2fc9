"""List every function in `src/cocomem` that the shipped CLI paths never
enter.

    python tests/unreached.py

In one process, under a `sys.settrace` tracer of call events, it imports
the package afresh and runs `cocomem run`, `cocomem verify` and `cocomem
bounds` on seed 0 of each config in `configs/` (through a copy of the
config with `"seeds": [0]`; the configs' other seeds enter no other code
object, and take about 3x as long under the tracer).  Then it compiles each
module of the package and prints, as `path:line name`, every code object
in it (function, method, lambda, comprehension or class body) that no
call entered, and a count.  Last it prints the total line count of
`src/cocomem/*.py` (as `wc -l` counts them), the other yardstick of how
much code ships.  A command that exits nonzero is reported on stderr and
makes the script exit 1.  The script only measures; pytest does not
collect it, and `test_unreached.py` holds its list to an allow-list.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import types
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cocomem"


@dataclass
class Survey:
    """`unreached`: (path, first line, qualified name) of each code object
    never entered, sorted; `total` code objects in all; `lines` in the
    package's modules; `failed` commands, one line each."""

    unreached: list[tuple[str, int, str]]
    total: int
    lines: int
    failed: list[str]


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


@contextlib.contextmanager
def _fresh_package():
    """Import `cocomem` anew inside the block, so that its class bodies and
    module-level code run there, and put the modules loaded before back
    after it."""
    def ours():
        return [name for name in sys.modules if name.partition(".")[0] == "cocomem"]

    saved = {name: sys.modules.pop(name) for name in ours()}
    try:
        yield
    finally:
        for name in ours():
            del sys.modules[name]
        sys.modules.update(saved)


def run_commands(out_dir: str) -> tuple[set, list[str]]:
    """(keys of the code objects entered, failed commands) of the CLI runs."""
    entered: set = set()

    def tracer(frame, event, arg):
        entered.add(frame.f_code)

    failed = []
    previous = sys.gettrace()
    with _fresh_package():
        sys.settrace(tracer)
        try:
            from cocomem.cli import main

            for shipped in sorted((ROOT / "configs").glob("*.json")):
                config = Path(out_dir) / shipped.name
                config.write_text(json.dumps({**json.loads(shipped.read_text()), "seeds": [0]}))
                for argv in (["run", "--config", str(config), "--out", out_dir],
                             ["verify", "--config", str(config)],
                             ["bounds", "--config", str(config)]):
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = main(argv)
                    if code != 0:
                        failed.append(f"cocomem {argv[0]} {shipped.name} exited {code}")
        finally:
            sys.settrace(previous)
    return {_key(code) for code in entered}, failed


def survey() -> Survey:
    """Run the CLI commands and list the code objects they never entered."""
    if str(PACKAGE.parent) not in sys.path:
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
    return Survey(sorted(unreached), total, lines, failed)


def main() -> int:
    found = survey()
    for path, line, name in found.unreached:
        print(f"{path}:{line} {name}")
    print(f"{len(found.unreached)} of {found.total} code objects in src/cocomem never entered")
    print(f"{found.lines} lines in src/cocomem/*.py")
    for line in found.failed:
        print(line, file=sys.stderr)
    return 1 if found.failed else 0


if __name__ == "__main__":
    sys.exit(main())

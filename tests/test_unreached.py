"""The code that no shipped CLI path enters is on a committed allow-list.

`unreached.survey()` runs `cocomem run`, `verify` and `bounds` on seed 0
of every config in `configs/` under a call tracer and lists the code
objects of `src/cocomem` that none of them entered.  The list is compared with
`unreached_allowed.txt` by module and qualified name, not by line, so an
edit elsewhere in a module does not move it."""

from collections import Counter
from pathlib import Path

import unreached

ALLOWED = Path(__file__).resolve().with_name("unreached_allowed.txt")


def _module(path: str) -> str:
    """`cocomem.geometry` for `src/cocomem/geometry.py`."""
    return ".".join(Path(path).relative_to("src").with_suffix("").parts)


def test_never_entered_code_is_on_the_allow_list():
    """A code object newly never entered fails the test, and so does a
    listed one that a shipped path now enters or that is gone: the list
    can only shrink, one deleted line at a time."""
    found = unreached.survey()
    assert found.failed == []
    never = Counter(f"{_module(path)}:{name}" for path, _, name in found.unreached)
    allowed = Counter(line for line in ALLOWED.read_text().splitlines()
                      if line and not line.startswith("#"))
    assert sorted((never - allowed).elements()) == [], "never entered and not on the allow-list"
    assert sorted((allowed - never).elements()) == [], "entered or gone: delete from the allow-list"

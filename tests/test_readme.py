"""The README's Python examples run as written, and its table of the checks
that matrix arithmetic guarantees is the code's."""

import re
from pathlib import Path

import pytest

from kreinalg.finite_krein import _IMPLIED

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def implication_rows(text):
    """(check, certificates) for each row of README's "Checks that matrix
    arithmetic guarantees" table, in order: the check is the first cell's one
    backquoted name, the certificates are the third cell's list of
    ``*_closure`` keys, which must be all that cell holds."""
    section = text.split("### Checks that matrix arithmetic guarantees\n", 1)[1].split("\n#", 1)[0]
    rows = []
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        name = re.fullmatch(r"`(\w+)`", cells[0])
        assert len(cells) == 3 and name, line
        assert re.fullmatch(r"`\w+_closure`(, `\w+_closure`)*", cells[2]), line
        rows.append((name[1], set(re.findall(r"`(\w+)_closure`", cells[2]))))
    return rows


def test_readme_implication_table_is_the_code_table():
    assert implication_rows(TEXT) == [(name, set(read)) for name, (_, read) in _IMPLIED.items()]

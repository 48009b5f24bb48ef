"""The mutation runner's generator (`tools/mutants.py`) on a small source
string. The mutant runs themselves take minutes and stay out of these
tests."""

import ast
import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("mutants", TOOLS / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""A docstring holds no site: 0 < 1."""
LIMIT = 3


def gate(a, b, items):
    if a <= LIMIT and not b:
        return (0, 0)
    return a in items or b is None
'''


def test_every_kind_of_mutant_once_per_site(tool):
    found = tool.mutants(SOURCE, "gate.py")
    assert [(m.function, m.line, m.change) for m in found] == [
        ("<module>", "LIMIT = 3", "3 -> 4"),
        ("gate", "if a <= LIMIT and not b:", "and -> or"),
        ("gate", "if a <= LIMIT and not b:", "<= -> <"),
        ("gate", "if a <= LIMIT and not b:", "drop not"),
        ("gate", "return (0, 0)", "0 -> 1 #1"),
        ("gate", "return (0, 0)", "0 -> 1 #2"),
        ("gate", "return a in items or b is None", "or -> and"),
        ("gate", "return a in items or b is None", "in -> not in"),
        ("gate", "return a in items or b is None", "is -> is not"),
    ]
    by_change = {m.change: m.source for m in found}
    assert "    if (a < LIMIT) and not b:\n" in by_change["<= -> <"]
    assert "    if a <= LIMIT and (b):\n" in by_change["drop not"]
    assert "        return (1, 0)\n" in by_change["0 -> 1 #1"]
    assert "        return (0, 1)\n" in by_change["0 -> 1 #2"]
    assert "    return (a in items and b is None)\n" in by_change["or -> and"]
    for m in found:  # only the site's line changed, and each parses
        changed = [a.strip() for a, b in zip(SOURCE.splitlines(), m.source.splitlines())
                   if a != b]
        assert changed == [m.line]
        ast.parse(m.source)


def test_an_f_string_holds_no_site(tool):
    assert tool.mutants('x = f"{a or 1}"\n', "f.py") == []


def test_equivalents_are_keyed_without_line_numbers(tool, tmp_path):
    listing = tmp_path / "equivalent.txt"
    listing.write_text(
        "# comment\n"
        "gate.py | gate | return (0, 0) | 0 -> 1 #1\n"
        "    (1, 0) is as empty as (0, 0)\n"
        "    for every caller.\n"
    )
    equivalents = tool.read_equivalents(listing)
    assert equivalents == {
        ("gate.py", "gate", "return (0, 0)", "0 -> 1 #1"):
            "(1, 0) is as empty as (0, 0) for every caller.",
    }
    shifted = tool.mutants("\n\n" + SOURCE, "gate.py")
    assert sum(m.key in equivalents for m in shifted) == 1
    listing.write_text("gate.py | gate | return (0, 0) | 0 -> 1 #1\n")
    with pytest.raises(ValueError, match="no reason"):
        tool.read_equivalents(listing)


def _unknown_entries(tool, listing):
    """The entries of `listing` that name no mutant the generator makes of
    today's module, each module read from its path under `src/trapscan`."""
    equivalents = tool.read_equivalents(listing)
    keys = {
        m.key
        for module in {module for module, *_ in equivalents}
        for m in tool.mutants((tool.SRC / module).read_text(), module)
    }
    return set(equivalents) - keys


def test_the_checked_in_list_names_mutants_that_exist(tool):
    """Every entry of `tools/equivalent_mutants.txt` names a mutant the
    generator makes of today's module, so a stale entry shows here."""
    listing = TOOLS / "equivalent_mutants.txt"
    assert tool.read_equivalents(listing) and _unknown_entries(tool, listing) == set()


def test_a_nested_module_is_keyed_by_its_path(tool, tmp_path):
    """A module in a subpackage is keyed by its path under `src/trapscan`,
    so the package's `__init__.py` files stay apart, and a list entry for
    it is found."""
    client = tool.SRC / "rpcbackend" / "client.py"
    assert tool.module_key(client) == "rpcbackend/client.py"
    inits = {tool.module_key(path) for path in tool.SRC.rglob("__init__.py")}
    assert inits == {"__init__.py", "mockchain/__init__.py", "rpcbackend/__init__.py"}
    mutant = tool.mutants(client.read_text(), tool.module_key(client))[0]
    listing = tmp_path / "equivalent.txt"
    listing.write_text(" | ".join(mutant.key) + "\n    a reason\n")
    assert _unknown_entries(tool, listing) == set()

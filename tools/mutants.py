"""Mutation runner: which one-token changes to a module its tests miss.

    python3 tools/mutants.py src/trapscan/pipeline.py tests/test_pipeline.py [...]

For one module it makes four kinds of mutant, one change each:

  * flip one comparison operator (`<` and `<=`, `>` and `>=`, `==` and
    `!=`, `is` and `is not`, `in` and `not in`, each into the other),
  * swap one `and` for `or`, or one `or` for `and`,
  * drop one `not`,
  * add 1 to one small integer constant (0 to 99; not a bool).

Each mutant runs the given test files with `pytest -x` in a temporary
copy of the checkout, never in the working tree; a mutant the tests pass
survives, and one still running after `TIMEOUT` seconds is killed.
The tests must first pass on the unmutated copy, or nothing runs (exit
2). `tests/test_mutants.py` is never run against a mutant: its check of
the list reads the listed modules' source lines, which a mutant may
change. Survivors are printed, those listed in
`tools/equivalent_mutants.txt` apart from the rest, and the exit status
is 1 when any survivor is not listed. Only the standard library is used.

A mutant is named by module (its path under `src/trapscan`, such as
`rpcbackend/client.py`), function, the text of its source line and its
change, never by line number, so that a list entry outlives edits
elsewhere in the module. Where one function can take the same change on
lines of the same text more than once, the change names its occurrence
in source order (`0 -> 1 #2`).
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from collections.abc import Iterator
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "trapscan"
EQUIVALENTS = ROOT / "tools" / "equivalent_mutants.txt"
SMALL_INT = range(100)
TIMEOUT = 300.0  # seconds

_FLIP = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
_SYMBOL = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
    ast.And: "and", ast.Or: "or",
}


class Mutant(NamedTuple):
    module: str  # path under src/trapscan, e.g. "rpcbackend/client.py"
    function: str  # qualified name of the enclosing def, or "<module>"
    line: str  # the stripped source line the change is on
    change: str  # e.g. "< -> <=", "and -> or", "drop not", "0 -> 1 #2"
    lineno: int  # for reading the report only; never part of the key
    source: str  # the whole mutated module

    @property
    def key(self) -> tuple[str, str, str, str]:
        return (self.module, self.function, self.line, self.change)


def _sites(tree: ast.AST) -> Iterator[tuple[ast.AST, str, int, object]]:
    """Every mutation site outside f-strings, in a fixed order: (node,
    function, lineno, what to change), where `what` is an operator index,
    the BoolOp, the `not`, or the constant."""
    def walk(node: ast.AST, function: str) -> Iterator:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.JoinedStr):
                continue  # an f-string: its text cannot take unparsed quotes before 3.12
            name = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name if function == "<module>" else f"{function}.{child.name}"
            if isinstance(child, ast.Compare):
                for i, op in enumerate(child.ops):
                    if type(op) in _FLIP:
                        yield child, name, child.lineno, i
            elif isinstance(child, ast.BoolOp):
                yield child, name, child.lineno, child.op
            elif isinstance(child, ast.UnaryOp) and isinstance(child.op, ast.Not):
                yield child, name, child.lineno, child.op
            elif (isinstance(child, ast.Constant) and type(child.value) is int
                  and child.value in SMALL_INT):
                yield child, name, child.lineno, child.value
            yield from walk(child, name)

    yield from walk(tree, "<module>")


def _changed(node: ast.AST, what: object) -> ast.AST:
    """A copy of the site `node` with the change `what` made (see `_sites`)."""
    new = copy.deepcopy(node)
    if isinstance(new, ast.Compare):
        new.ops[what] = _FLIP[type(new.ops[what])]()
        return new
    if isinstance(new, ast.BoolOp):
        new.op = ast.Or() if isinstance(new.op, ast.And) else ast.And()
        return new
    if isinstance(new, ast.UnaryOp):
        return new.operand
    return ast.Constant(new.value + 1)


def _describe(node: ast.AST, what: object) -> str:
    if isinstance(node, ast.Compare):
        op = type(node.ops[what])
        return f"{_SYMBOL[op]} -> {_SYMBOL[_FLIP[op]]}"
    if isinstance(node, ast.BoolOp):
        return "and -> or" if isinstance(node.op, ast.And) else "or -> and"
    if isinstance(node, ast.UnaryOp):
        return "drop not"
    return f"{node.value} -> {node.value + 1}"


def _splice(source: str, node: ast.AST, text: str) -> str:
    """`source` with the text of `node` replaced by `text`. Offsets are
    the parser's, in UTF-8 bytes."""
    lines = source.splitlines(keepends=True)
    head = lines[node.lineno - 1].encode()[:node.col_offset].decode()
    tail = lines[node.end_lineno - 1].encode()[node.end_col_offset:].decode()
    return "".join([*lines[:node.lineno - 1], head, text, tail, *lines[node.end_lineno:]])


def mutants(source: str, module: str) -> list[Mutant]:
    """Every mutant of `source`, a module named `module`, in source order
    of its sites. Docstrings hold no sites: they are string constants.
    Each mutant is `source` with only its site's text replaced, in
    parentheses unless it is a constant, so that precedence holds."""
    lines = source.splitlines()
    sites = list(_sites(ast.parse(source)))
    keys = [
        (function, lines[lineno - 1].strip(), _describe(node, what))
        for node, function, lineno, what in sites
    ]
    totals = Counter(keys)
    nth: Counter = Counter()
    found = []
    for (node, function, lineno, what), key in zip(sites, keys):
        change = key[2]
        if totals[key] > 1:
            nth[key] += 1
            change = f"{change} #{nth[key]}"
        text = ast.unparse(_changed(node, what))
        if not isinstance(node, ast.Constant):
            text = f"({text})"
        found.append(Mutant(module, function, key[1], change, lineno,
                            _splice(source, node, text)))
    return found


def read_equivalents(path: Path) -> dict[tuple[str, str, str, str], str]:
    """Accepted equivalent mutants: key -> reason. An entry is a line
    `module | function | source line | change`, followed by its reason on
    one or more indented lines; `#` starts a comment line."""
    entries: dict[tuple[str, str, str, str], str] = {}
    key = None
    for raw in path.read_text().splitlines():
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        if raw[0].isspace():
            if key is None:
                raise ValueError(f"{path}: a reason before any entry: {raw!r}")
            entries[key] = f"{entries[key]} {raw.strip()}".strip()
            continue
        if key is not None and not entries[key]:
            raise ValueError(f"{path}: no reason given for {key}")
        module, function, rest = raw.split(" | ", 2)
        line, change = rest.rsplit(" | ", 1)
        key = (module, function, line, change)
        entries[key] = ""
    if key is not None and not entries[key]:
        raise ValueError(f"{path}: no reason given for {key}")
    return entries


def module_key(path: Path) -> str:
    """The module part of a mutant's key: the path under `src/trapscan`,
    so that the package's `__init__.py` files stay apart."""
    return path.resolve().relative_to(SRC).as_posix()


def run(module_path: Path, tests: list[str]) -> int:
    module_path = module_path.resolve()
    relative = module_path.relative_to(ROOT)
    found = mutants(module_path.read_text(), module_key(module_path))
    equivalents = read_equivalents(EQUIVALENTS)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    survivors: list[Mutant] = []
    with tempfile.TemporaryDirectory(prefix="trapscan-mutants-") as tmp:
        checkout = Path(tmp) / "checkout"
        shutil.copytree(ROOT, checkout, ignore=shutil.ignore_patterns(
            ".git", ".bench_build", "__pycache__", ".pytest_cache", ".hypothesis",
        ))
        target = checkout / relative
        command = [
            sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--ignore", "tests/test_mutants.py", *tests,
        ]
        # A failing or empty baseline would count every mutant as killed.
        if subprocess.run(command, cwd=checkout, env=env, timeout=TIMEOUT,
                          stdout=subprocess.DEVNULL).returncode != 0:
            print(f"error: the tests do not pass on the unmutated {relative}", file=sys.stderr)
            return 2
        for n, mutant in enumerate(found, start=1):
            target.write_text(mutant.source)
            start = time.monotonic()
            try:
                done = subprocess.run(
                    command, cwd=checkout, env=env, timeout=TIMEOUT,
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                )
                verdict = "survived" if done.returncode == 0 else "killed"
            except subprocess.TimeoutExpired:
                verdict = "killed (timeout)"
            if verdict == "survived":
                survivors.append(mutant)
            print(f"[{n}/{len(found)}] {verdict:16} {time.monotonic() - start:5.1f}s  "
                  f"{_name(mutant)}", flush=True)

    listed = [m for m in survivors if m.key in equivalents]
    unlisted = [m for m in survivors if m.key not in equivalents]
    print(f"\n{relative}: {len(found)} mutants, {len(survivors)} survivors "
          f"({len(listed)} listed as equivalent)")
    for m in listed:
        print(f"  equivalent  {_name(m)}\n              {equivalents[m.key]}")
    for m in unlisted:
        print(f"  SURVIVED    {_name(m)}")
    return 1 if unlisted else 0


def _name(m: Mutant) -> str:
    return f"{m.module}:{m.lineno} {m.function} | {m.line} | {m.change}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", type=Path, help="the module to mutate")
    parser.add_argument("tests", nargs="+", help="test files to run against each mutant")
    args = parser.parse_args(argv)
    return run(args.module, args.tests)


if __name__ == "__main__":
    sys.exit(main())

"""Layout guards: every function, class and method in ``src/splitgnn`` is
used by the program itself, no module imports a name it never reads, and
messages between parties move only through ``RoundTranscript.send``.

A definition counts as used when its name appears somewhere in
``src/splitgnn`` or ``perfbench`` other than at its own ``def``: as a name
or attribute that is read, or as a word inside a string that is not a
docstring (``perfbench`` looks functions up by name).  Code that only tests
call belongs in ``tests/``, where it can serve as an oracle.

The first guard matches bare names, not qualified ones, so it misses a
test-only definition that shares its name with one the program uses: a
module function ``embed`` would pass because ``Participant.embed`` is
called, and a ``from_bytes`` classmethod because ``int.from_bytes`` is.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "splitgnn"
PROGRAM = (PACKAGE, ROOT / "perfbench")
TESTS = ROOT / "tests"

# entry points called from outside the program: the console script
ALLOWED = {"main"}


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def definitions(tree):
    """(qualified name, bare name) of module-level functions and classes and
    of the methods defined directly in those classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, kinds):
                        yield f"{node.name}.{item.name}", item.name


def docstrings(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                out.add(id(first.value))
    return out


def references(tree):
    """Every name the module reads, and every word of its non-docstring
    strings."""
    skip = docstrings(tree)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in skip:
            out.update(re.findall(r"\w+", node.value))
    return out


def test_every_definition_is_used():
    used = set()
    for directory in PROGRAM:
        for path in sorted(directory.glob("*.py")):
            used |= references(parse(path))
    unused = [
        f"{path.name}: {qualified}"
        for path in sorted(PACKAGE.glob("*.py"))
        for qualified, name in definitions(parse(path))
        if name not in used and name not in ALLOWED
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert not unused, "defined in src/splitgnn but used only by tests or nowhere: " \
        + ", ".join(unused)


def imported_names(tree):
    """(bound name, line) of every import, except ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def test_every_import_is_read():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path.name == "__init__.py":  # re-exports
            continue
        tree = parse(path)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.relative_to(ROOT)}:{line}: {name}"
                   for name, line in imported_names(tree) if name not in read]
    assert not unread, "imported but never read: " + ", ".join(unread)


def test_only_the_transcript_adds_records():
    """Every other module moves values through ``send``, which sizes the
    record from the value the receiver gets; a hand-built record could
    meter one value and deliver another."""
    adders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "transcript.py":
            continue
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "add" and "transcript" in ast.unparse(node.func.value):
                adders.append(f"{path.name}:{node.lineno}")
    assert not adders, "transcript records added outside transcript.py: " + ", ".join(adders)

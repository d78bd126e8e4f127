"""Layout guards: every function, class and method in ``src/splitgnn`` is
used by the program itself, no module imports a name it never reads,
messages between parties move only through ``RoundTranscript.send``,
only ``tensor.py`` forms a matrix product, and only ``errors.py`` reads a
file or an integer written as text.

"Used" is judged in ``src/splitgnn`` and ``perfbench``.  A module-level
function or class is used when it is read as a bare name in its own module,
as ``module.name`` through an imported package module, or imported with
``from .module import name``, so a module function ``embed`` does not pass
on a call of ``Participant.embed``.  A method is used when its name
appears other than at its own ``def``: as a name or attribute that is read,
or as a word inside a string that is not a docstring (``perfbench`` wraps
methods by name).  A method can still pass on another method's call of the
same name.  Code that only tests call belongs in ``tests/``, where it can
serve as an oracle.
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


def package_module(node):
    """The ``src/splitgnn`` module an import statement names, if any:
    ``graph`` for ``from .graph import x`` or ``from splitgnn.graph import
    x``, and ``""`` for the package itself (``from . import graph``)."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 1:
            return node.module or ""
        if node.level == 0 and node.module and node.module.split(".")[0] == "splitgnn":
            return node.module.partition(".")[2]
    return None


def module_references(path, tree):
    """The (module, name) pairs of package definitions that a program file
    reads: bare names in its own module, ``alias.name`` where the alias is
    an imported package module, and names imported from a package module."""
    own = path.stem if path.parent == PACKAGE else None
    aliases, out = {}, set()
    for node in ast.walk(tree):
        module = package_module(node)
        if module == "":
            aliases.update({alias.asname or alias.name: alias.name for alias in node.names})
        elif module is not None:
            out.update((module, alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and own:
            out.add((own, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                and isinstance(node.value, ast.Name) and node.value.id in aliases:
            out.add((aliases[node.value.id], node.attr))
    return out


def test_every_definition_is_used():
    words, qualified = set(), set()
    for directory in PROGRAM:
        for path in sorted(directory.glob("*.py")):
            tree = parse(path)
            words |= references(tree)
            qualified |= module_references(path, tree)
    unused = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, bare in definitions(parse(path))
        if (bare not in words if "." in name else (path.stem, name) not in qualified)
        and bare not in ALLOWED and not (bare.startswith("__") and bare.endswith("__"))
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


def test_only_the_session_sends():
    """Who sends what to whom is the protocol, so one module decides it: the
    session sends every message, PSI digests and ciphertexts included, and
    logs every decryption; ``crypto`` only computes each party's half."""
    senders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("protocol.py", "transcript.py"):
            continue
        senders += [f"{path.name}:{node.lineno}: {node.func.attr}"
                    for node in ast.walk(parse(path))
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("send", "log_decryption")]
    assert not senders, "messages sent outside protocol.py: " + ", ".join(senders)


def test_only_the_session_constructor_reads_the_strategy():
    """The strategy decides each participant's map and the server's first
    layer when a session is built; the round, the routing and inference only
    sum and route, so nothing else in ``protocol.py`` may read it."""
    tree = parse(PACKAGE / "protocol.py")
    [init] = [item for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "SplitSession"
              for item in node.body
              if isinstance(item, ast.FunctionDef) and item.name == "__init__"]
    inside = {id(node) for node in ast.walk(init)}
    reads = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and node.attr == "strategy" and isinstance(node.ctx, ast.Load)]
    assert any(id(node) in inside for node in reads)
    outside = [f"protocol.py:{node.lineno}" for node in reads if id(node) not in inside]
    assert not outside, "strategy read outside SplitSession.__init__: " + ", ".join(outside)


def test_encoders_draw_nothing_at_random():
    """An encoder draws random numbers only to initialise its parameters:
    no dropout and no other draw in a forward, so a forward is the same
    function of (parameters, batch) with or without a tape, and every random
    draw of a round is the server's."""
    tree = parse(PACKAGE / "models.py")
    [init] = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "init_param"]
    inside = {id(node) for node in ast.walk(init)}
    draws = [f"models.py:{node.lineno}: {ast.unparse(node.func)}"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and id(node) not in inside
             and (node.func.attr if isinstance(node.func, ast.Attribute)
                  else getattr(node.func, "id", None)) in ("dropout", "stable_rng")]
    assert not draws, "random draws outside init_param: " + ", ".join(draws)


SEEDED_CONSTRUCTORS = ("random.Random", "np.random.default_rng")
GLOBAL_STREAMS = ("random.", "np.random.", "numpy.random.")
ENTROPY = ("secrets", "SystemRandom")


def test_every_draw_is_seeded():
    """Every random draw in ``src/splitgnn`` comes from a generator built
    from a seed, so a run is a function of its seeds: no operating-system
    entropy (``secrets``, ``SystemRandom``), no generator built without a
    seed, and no draw from the global ``random`` or ``np.random`` state."""
    unseeded = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Call):
                func = ast.unparse(node.func)
                if func in SEEDED_CONSTRUCTORS:
                    if not (node.args or node.keywords):
                        unseeded.append(f"{where}: {func}() without a seed")
                elif func.startswith(GLOBAL_STREAMS):
                    unseeded.append(f"{where}: {func}()")
            elif isinstance(node, ast.ImportFrom) and node.module in ("random", "numpy.random"):
                unseeded.append(f"{where}: from {node.module} import")
            elif (isinstance(node, ast.Name) and node.id in ENTROPY
                  or isinstance(node, ast.Attribute) and node.attr in ENTROPY
                  or isinstance(node, ast.alias) and node.name in ENTROPY):
                unseeded.append(f"{where}: {ast.unparse(node)}")
    assert not unseeded, "random draws not derived from a seed: " + ", ".join(unseeded)


GENERATORS = ("random.Random", "np.random.default_rng", "stable_rng")


def test_no_generator_outlives_a_call():
    """A generator is built where it draws and dropped with the call that
    built it, never kept on an object or a module, so a draw is a function
    of the key that names its stream: a kept stream would hand a round
    whatever a failed round before it left."""
    kept = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        module_level = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)) \
                    or not isinstance(node.value, ast.Call) \
                    or ast.unparse(node.value.func) not in GENERATORS:
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            kept += [f"{path.name}:{node.lineno}: {ast.unparse(target)}"
                     for target in targets if isinstance(target, ast.Attribute)
                     or isinstance(target, ast.Name) and id(node) in module_level]
    assert not kept, "generators stored beyond the call that built them: " \
        + ", ".join(kept)


def test_no_private_attribute_of_another_object_is_read():
    """A single-underscore attribute is read only through ``self`` or
    ``cls``: what one object, module or class keeps to itself no other part
    of the program reads."""
    reads = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(parse(path))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
             and node.attr.startswith("_") and not node.attr.startswith("__")
             and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))]
    assert not reads, "private attributes read through another object: " + ", ".join(reads)


# the functions of src/splitgnn that may call hashlib, each for its own
# purpose: the PSI digest, the PSI salt, seeded streams and config digests
HASHING_FUNCTIONS = {"crypto.psi_digest", "crypto.fresh_salt", "seeding.stable_seed",
                     "experiments.ExperimentConfig.digest"}


def test_psi_digest_is_the_one_digest_definition():
    """``crypto.psi_digest`` is the only PSI digest: ``psi_align`` reads it
    and hashes nothing itself, and every hashlib call in ``src/splitgnn`` is
    in a function named in ``HASHING_FUNCTIONS``."""
    def hashes(node):
        return isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "hashlib"

    found, outside = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree, inside = parse(path), set()
        functions = [(node, node.name) for node in tree.body
                     if isinstance(node, ast.FunctionDef)]
        functions += [(item, f"{node.name}.{item.name}") for node in tree.body
                      if isinstance(node, ast.ClassDef) for item in node.body
                      if isinstance(item, ast.FunctionDef)]
        for node, name in functions:
            uses = {id(sub) for sub in ast.walk(node) if hashes(sub)}
            if uses:
                found.add(f"{path.stem}.{name}")
                inside |= uses
        outside += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if hashes(node) and id(node) not in inside]
    assert not outside, "hashlib used outside a function: " + ", ".join(outside)
    assert found == HASHING_FUNCTIONS
    [align] = [node for node in parse(PACKAGE / "crypto.py").body
               if isinstance(node, ast.FunctionDef) and node.name == "psi_align"]
    assert "psi_digest" in {node.id for node in ast.walk(align) if isinstance(node, ast.Name)}


# numpy's matrix products; ``tensor.py`` forms every one the program needs
PRODUCT_CALLS = {f"{module}.{name}" for module in ("np", "numpy")
                 for name in ("dot", "matmul", "einsum", "inner", "tensordot")}


def test_only_tensor_forms_a_matrix_product():
    """Every matrix product is a ``tensor`` op, so it rounds each row as a
    product of many rows does: no other module of ``src/splitgnn`` uses the
    ``@`` operator or calls ``np.dot``, ``np.matmul``, ``np.einsum``,
    ``np.inner`` or ``np.tensordot``."""
    products = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "tensor.py":
            continue
        for node in ast.walk(parse(path)):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                products.append(f"{path.name}:{node.lineno}: @")
            elif isinstance(node, ast.Call) and ast.unparse(node.func) in PRODUCT_CALLS:
                products.append(f"{path.name}:{node.lineno}: {ast.unparse(node.func)}")
    assert not products, "matrix products outside tensor.py: " + ", ".join(products)


# the calls that read a file; ``open`` reads unless its mode writes
FILE_READ_CALLS = {"json.load", "json.loads"}
FILE_READ_METHODS = {"read_text", "read_bytes"}


def reads_a_file(call):
    func = ast.unparse(call.func)
    if func == "open":
        mode = call.args[1] if len(call.args) > 1 else next(
            (k.value for k in call.keywords if k.arg == "mode"), None)
        return not (isinstance(mode, ast.Constant) and set(mode.value) & set("wax+"))
    return func in FILE_READ_CALLS or isinstance(call.func, ast.Attribute) \
        and call.func.attr in FILE_READ_METHODS


def test_only_errors_reads_a_file():
    """Every input file is read through ``errors.open_text``, ``text_lines``
    or ``read_json``, so each refusal names the file: no other module of
    ``src/splitgnn`` calls ``open`` without a write mode, ``.read_text``,
    ``.read_bytes``, ``json.load`` or ``json.loads``."""
    reads = [f"{path.name}:{node.lineno}: {ast.unparse(node.func)}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "errors.py"
             for node in ast.walk(parse(path))
             if isinstance(node, ast.Call) and reads_a_file(node)]
    assert not reads, "files read outside errors.py: " + ", ".join(reads)


# the calls that read an integer from text by a rule of their own
DIGIT_TESTS = {"isdigit", "isdecimal", "isnumeric"}


def test_only_errors_reads_an_integer_from_text():
    """Every integer written as text is read by ``errors.canonical_int``, so
    each site accepts it only as ``str`` writes it: no other module of
    ``src/splitgnn`` calls ``isdigit``, ``isdecimal`` or ``isnumeric``, or
    passes ``type=int`` to argparse."""
    rules = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(parse(path)):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) and node.func.attr in DIGIT_TESTS:
                rules.append(f"{path.name}:{node.lineno}: {node.func.attr}")
            rules += [f"{path.name}:{node.lineno}: type=int" for k in node.keywords
                      if k.arg == "type" and ast.unparse(k.value) == "int"]
    assert not rules, "integer rules outside errors.py: " + ", ".join(rules)

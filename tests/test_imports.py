"""No module of the package or of its tests imports a name it never uses,
the package defines no private helper that nothing names, it sets no
attribute that nothing reads, none of its functions takes a parameter
that it never reads, only the attention module takes additive
attention scores from the tensor core, only the training module
builds decoders from their configs, only the metrics module's encoding
codes sentences into n-grams, and only its ``_bin_sums`` adds floats
with ``np.bincount``."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "capgen"
PERFBENCH = TESTS.parent / "perfbench"
MODULES = (sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
           + sorted(TESTS.glob("*.py")))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_import():
    assert unused_imports("import os\nfrom typing import Optional\nos.sep\n") == [
        "Optional (line 2)"]


def unnamed_private_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level ``def _name`` / ``class _Name`` in ``sources`` (file name
    -> text) whose name no module of ``sources`` mentions: not as a name,
    an attribute or an imported name."""
    defined, named = [], set()
    for file, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                defined.append((file, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return [f"{file}: {name}" for file, name in defined if name not in named]


def test_no_unnamed_private_definitions():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unnamed_private_definitions(sources) == []


def test_detects_unnamed_private_definition():
    sources = {"a.py": "def _kept():\n    pass\n\ndef _dead():\n    pass\n\n"
                       "class _Gone:\n    pass\n",
               "b.py": "from a import _kept\n"}
    assert unnamed_private_definitions(sources) == ["a.py: _dead", "a.py: _Gone"]


def unread_attributes(written: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Attributes that a class of ``written`` (file name -> text) assigns
    on ``self`` and that no module of ``written`` or ``readers`` reads,
    on any object: as a loaded attribute or as ``getattr``'s constant
    name.  Each is listed once, as ``file: Class.attribute``."""
    assigned, read = {}, set()
    for file, source in {**readers, **written}.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
        if file not in written:
            continue
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"):
                    assigned.setdefault(f"{file}: {cls.name}.{node.attr}", node.attr)
    return [where for where, attr in assigned.items() if attr not in read]


def test_no_unread_attributes():
    written = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    readers = {f"perfbench/{p.name}": p.read_text() for p in sorted(PERFBENCH.glob("*.py"))}
    assert unread_attributes(written, readers) == []


def test_detects_unread_attribute():
    written = {"a.py": "class A:\n    def __init__(self):\n        self.used = 1\n"
                       "        self.dead = 2\n        self.dead = 3\n"
                       "        self.named = 4\n        self.elsewhere = 5\n\n"
                       "    def f(self):\n        return self.used + getattr(self, 'named')\n"}
    readers = {"b.py": "def g(a):\n    return a.elsewhere\n"}
    assert unread_attributes(written, readers) == ["a.py: A.dead"]


def unread_parameters(sources: dict[str, str]) -> list[str]:
    """Parameters of a function or lambda in ``sources`` (file name ->
    text) that its body, nested functions included, never loads; ``self``
    and ``cls`` aside.  Each is listed as ``file: qualname(parameter)``,
    a lambda's name being ``<lambda>`` and its line."""
    unread = []

    def visit(node, prefix, file):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", file)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, prefix, file)
                continue
            is_lambda = isinstance(child, ast.Lambda)
            name = f"<lambda>:{child.lineno}" if is_lambda else child.name
            args = child.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            loaded = {n.id for stmt in ([child.body] if is_lambda else child.body)
                      for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            unread.extend(f"{file}: {prefix}{name}({p})" for p in params
                          if p not in loaded and p not in ("self", "cls"))
            visit(child, f"{prefix}{name}.", file)

    for file, source in sources.items():
        visit(ast.parse(source), "", file)
    return unread


# parameters that an interface fixes, with the reason each goes unread
PROTOCOL_PARAMETERS = {
    "tensor.py: Tape.__exit__(exc_type)": "the context-manager protocol",
    "tensor.py: Tape.__exit__(exc)": "the context-manager protocol",
    "tensor.py: Tape.__exit__(tb)": "the context-manager protocol",
    "tensor.py: _Outer.dense(shape)": "backward calls dense(shape) on _Rows and _Outer alike",
}


def test_no_unread_parameters():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert [p for p in unread_parameters(sources) if p not in PROTOCOL_PARAMETERS] == []


def test_detects_unread_parameter():
    sources = {"a.py": "def f(a, b, *args, c=1, **kw):\n    return a + kw['x']\n\n"
                       "class K:\n    def m(self, x, y):\n        def inner():\n"
                       "            return x\n        return inner\n\n"
                       "g = lambda u, v: u\n"}
    assert unread_parameters(sources) == [
        "a.py: f(b)", "a.py: f(c)", "a.py: f(args)", "a.py: K.m(y)", "a.py: <lambda>:10(v)"]


def _bound_names(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level: definitions, assignments
    and imports."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
    return bound


def stale_exports(sources: dict[str, str]) -> list[str]:
    """Names that ``sources`` (a package's file name -> text) export but
    never define: a name of a module's ``__all__`` that the module does
    not bind, and a name that ``__init__.py`` imports from a sibling
    module that does not bind it."""
    trees = {file: ast.parse(source) for file, source in sources.items()}
    bound = {file: _bound_names(tree) for file, tree in trees.items()}
    stale = []
    for file, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                stale += [f"{file}: {name}" for name in ast.literal_eval(node.value)
                          if name not in bound[file]]
    for node in trees.get("__init__.py", ast.Module(body=[])).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            source = f"{node.module}.py"
            stale += [f"__init__.py: {a.name} (from {source})" for a in node.names
                      if a.name not in bound.get(source, ())]
    return stale


def test_no_stale_exports():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert stale_exports(sources) == []


def test_detects_stale_export():
    sources = {"a.py": "__all__ = ['f', 'gone', 'X', 'Y']\n\ndef f():\n    pass\n\n"
                       "X: int = 1\nY, Z = 2, 3\n",
               "__init__.py": "from .a import f, removed\n"}
    assert stale_exports(sources) == ["a.py: gone", "__init__.py: removed (from a.py)"]


def modules_naming(sources: dict[str, str], name: str) -> list[str]:
    """Files of ``sources`` (file name -> text) whose code names ``name``:
    as a name, an attribute or an imported name."""
    hits = []
    for file, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if ((isinstance(node, ast.Name) and node.id == name)
                    or (isinstance(node, ast.Attribute) and node.attr == name)
                    or (isinstance(node, ast.alias) and node.name == name)):
                hits.append(file)
                break
    return hits


def test_one_attention_scorer():
    """Every additive score goes through ``AdditiveAttention``: no module
    but the tensor core, which defines the op, and ``attention.py``
    names ``additive_scores``."""
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               if p.name not in ("tensor.py", "attention.py")}
    assert modules_naming(sources, "additive_scores") == []


def test_detects_module_naming_a_name():
    sources = {"a.py": "from t import additive_scores as s\n",
               "b.py": "import t\nt.additive_scores(1)\n",
               "c.py": "x = 'additive_scores'  # additive_scores\n",
               "d.py": "def f(additive_scores):\n    return additive_scores\n"}
    assert modules_naming(sources, "additive_scores") == ["a.py", "b.py", "d.py"]


def modules_calling(sources: dict[str, str], names: set[str]) -> list[str]:
    """Files of ``sources`` (file name -> text) whose code calls one of
    ``names``, as ``name(...)`` or ``module.name(...)``."""
    hits = []
    for file, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and (
                    (isinstance(node.func, ast.Name) and node.func.id in names)
                    or (isinstance(node.func, ast.Attribute) and node.func.attr in names)):
                hits.append(file)
                break
    return hits


DECODER_CONSTRUCTORS = {"DecoderConfig", "DaConfig", "DeliberateDecoder"}


def test_one_decoder_builder():
    """Every decoder of the package is sized from its features by
    ``training.build_decoder``: no other module calls a decoder config
    or DA's decoder class."""
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "training.py"}
    assert modules_calling(sources, DECODER_CONSTRUCTORS) == []


def test_one_dropout_source():
    """Every dropout mask, a decoding step's too, is drawn by
    ``decoders._dropout_masks``: no other module calls ``dropout_mask``."""
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "decoders.py"}
    assert modules_calling(sources, {"dropout_mask"}) == []


def test_detects_module_calling_a_name():
    sources = {"a.py": "from t import DaConfig\nDaConfig(1)\n",
               "b.py": "import t\nx = [t.DecoderConfig(vocab_size=3)]\n",
               "c.py": "from t import DaConfig\n\ndef f(c: DaConfig):\n    return c\n",
               "d.py": "s = 'DaConfig(1)'  # DeliberateDecoder(c)\n"}
    assert modules_calling(sources, DECODER_CONSTRUCTORS) == ["a.py", "b.py"]


def calls_outside(source: str, names: set[str], owner: str) -> list[str]:
    """Calls in ``source`` of one of ``names``, as ``name(...)`` or
    ``x.name(...)``, outside its top-level definition ``owner``.  Each is
    listed once per definition as ``definition: name``, module-level code
    as ``<module>``."""
    hits = []
    for top in ast.parse(source).body:
        where = getattr(top, "name", "<module>")
        called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                  for node in ast.walk(top) if isinstance(node, ast.Call)}
        if where != owner:
            hits += [f"{where}: {name}" for name in sorted(called & names)]
    return hits


NGRAM_CODER = {"_word_ids", "_grams"}


def test_one_ngram_coder():
    """Every sentence that BLEU or CIDEr-D scores, a corpus's or a reward's,
    candidate or reference, is coded into n-grams by ``metrics._Encoding``:
    no other code of ``metrics.py`` calls ``_word_ids`` or ``_grams``."""
    assert calls_outside((PACKAGE / "metrics.py").read_text(), NGRAM_CODER, "_Encoding") == []


def test_detects_call_outside_its_owner():
    source = ("def _grams(x):\n    return x\n\n"
              "class _Encoding:\n    def f(self):\n        return _grams(1)\n\n"
              "class CiderD:\n    def g(self, m):\n        return m._grams(2), _word_ids(3)\n\n"
              "def h():\n    return [_grams, '_word_ids(5)']\n\n"
              "X = _word_ids(4)\n")
    assert calls_outside(source, NGRAM_CODER, "_Encoding") == [
        "CiderD: _grams", "CiderD: _word_ids", "<module>: _word_ids"]


def weighted_bincounts(sources: dict[str, str]) -> list[str]:
    """Calls of ``bincount`` (``np.bincount`` or a bare ``bincount``) with
    weights, positional or by keyword, in ``sources`` (file name -> text),
    each listed as ``file: top-level definition`` (``<module>`` for
    module-level code)."""
    hits = []
    for file, source in sources.items():
        for top in ast.parse(source).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "bincount"
                        and (len(node.args) > 1 or any(k.arg == "weights" for k in node.keywords))):
                    hits.append(f"{file}: {getattr(top, 'name', '<module>')}")
    return hits


def test_one_float_bin_sum():
    """Every float sum whose order CIDEr-D's bits depend on is
    ``metrics._bin_sums``, which ``test_metrics.TestBinSums`` holds to a
    left-to-right loop: no other code of the package calls ``np.bincount``
    with weights."""
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert weighted_bincounts(sources) == ["metrics.py: _bin_sums"]


def test_detects_weighted_bincount():
    sources = {"a.py": "import numpy as np\nnp.bincount(x)\nnp.bincount(x, minlength=3)\n",
               "b.py": "def f(x, w):\n    return np.bincount(x, w)\n",
               "c.py": "from numpy import bincount\nclass C:\n"
                       "    def g(self, x, w):\n        return bincount(x, weights=w)\n",
               "d.py": "s = 'np.bincount(x, w)'  # np.bincount(x, w)\n"}
    assert weighted_bincounts(sources) == ["b.py: f", "c.py: C"]

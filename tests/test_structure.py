"""Six structural rules for ``src/nlhb``, checked with ``ast``.

- No ``class`` statement sits inside a function body: a class built per call
  is a new type each time, which nothing can patch or subclass.
- Every top-level ``def`` and ``class`` has a caller: its name appears in the
  package outside its own definition, or in the benchmark (``perfbench/*.py``),
  which wraps some functions by their dotted names.
- Every attribute the package stores on ``self`` is read somewhere: some
  ``.name`` in the package, the tests or the benchmark loads it.  Storing it
  is not a read.
- Every defaulted parameter of a private top-level function is passed, by
  position or keyword, by some call in the package or the benchmark: a
  default that nothing overrides is a constant dressed as an option.
- Every defaulted parameter of a public top-level function is passed by some
  call in the package, the benchmark or the tests.
- Exchange images are built in ``gf2core``, ``nlfunc`` and ``protocols``
  only: no other module imports, or reads as an attribute, the kernels that
  multiply, map or convert one (:data:`IMAGE_KERNELS`).  They answer through
  ``protocols``.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nlhb"
MODULES = sorted(PACKAGE.glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
# Names with no caller in the package or the benchmark; only tests and the
# README call these.
NO_CALLER = {"authsvc.write_keystore"}
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DOTTED = re.compile(r"[A-Za-z_][\w.]*\Z")


def _nested_classes(source: str) -> list[int]:
    """Lines of the class statements inside a function body."""
    return sorted({
        inner.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, _FUNCTIONS)
        for inner in ast.walk(node)
        if isinstance(inner, ast.ClassDef)
    })


def _references(nodes) -> set[str]:
    """Names that ``nodes`` use: identifiers, attributes, imported names and
    each part of a string that is a dotted name (``"gf2core.hamming"``)."""
    out = set()
    for node in nodes:
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _DOTTED.match(node.value):
            out.update(node.value.split("."))
    return out


def _unreferenced(package: dict[str, str], bench: list[str]) -> list[str]:
    """``module.name`` of each top-level def or class in ``package`` (module
    name -> source) that no other code there, nor any ``bench`` source, names."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    # the names each top-level statement of each module uses
    refs = {name: [_references(ast.walk(node)) for node in tree.body] for name, tree in trees.items()}
    bench_refs = set()
    for source in bench:
        bench_refs |= _references(ast.walk(ast.parse(source)))
    found = []
    for module, tree in trees.items():
        elsewhere = bench_refs.union(*(r for other in refs if other != module for r in refs[other]))
        for i, node in enumerate(tree.body):
            if not isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
                continue
            used = elsewhere.union(*(r for j, r in enumerate(refs[module]) if j != i))
            if node.name not in used:
                found.append("%s.%s" % (module, node.name))
    return found


def _unread_attributes(package: dict[str, str], readers: list[str]) -> list[str]:
    """``module.name`` of each ``self.name = ...`` in ``package`` (module name
    -> source) whose ``.name`` neither the package nor any ``readers`` source
    loads."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    loaded = {
        node.attr
        for tree in list(trees.values()) + [ast.parse(source) for source in readers]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted({
        "%s.%s" % (module, node.attr)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
        and node.attr not in loaded
    })


@pytest.mark.parametrize("source, lines", [
    ("class A:\n    def f(self): pass\n", []),
    ("def f():\n    class A: pass\n", [2]),
    ("class S:\n    def __init__(self):\n        class H: pass\n", [3]),
    ("def f():\n    def g():\n        class A: pass\n", [3]),
    ("async def f():\n    class A: pass\n", [2]),
])
def test_the_nested_class_check_reads_each_form(source, lines):
    assert _nested_classes(source) == lines


@pytest.mark.parametrize("package, bench, found", [
    ({"a": "def f(): pass\n"}, [], ["a.f"]),
    ({"a": "def f():\n    return f()\n"}, [], ["a.f"]),
    ({"a": "def f(): pass\ndef g():\n    return f()\n"}, [], ["a.g"]),
    ({"a": "class C: pass\n", "b": "from .a import C\n"}, [], []),
    ({"a": "def f(): pass\n", "b": "import a\na.f()\n"}, [], []),
    ({"a": "def f(): pass\n"}, ["wrap(mod, 'f')\n"], []),
    ({"a": "def f(): pass\n"}, ["NAMES = ['a.f']\n"], []),
    ({"a": "def f():\n    '''calls f'''\n"}, ["doc = 'see f here'\n"], ["a.f"]),
])
def test_the_caller_check_reads_each_form(package, bench, found):
    assert _unreferenced(package, bench) == found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_class_is_defined_inside_a_function(path):
    lines = _nested_classes(path.read_text(encoding="utf-8"))
    assert not lines, "%s defines a class inside a function at line(s) %s" % (
        path.name, ", ".join(map(str, lines))
    )


def test_every_top_level_name_has_a_caller():
    package = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    found = set(_unreferenced(package, [p.read_text(encoding="utf-8") for p in BENCH]))
    assert not found - NO_CALLER, "no caller in src/nlhb or perfbench: %s" % sorted(found - NO_CALLER)
    assert not NO_CALLER - found, "these now have a caller; drop them from NO_CALLER: %s" % sorted(
        NO_CALLER - found
    )


@pytest.mark.parametrize("package, readers, found", [
    ({"a": "class C:\n    def __init__(self):\n        self.x = 1\n"}, [], ["a.x"]),
    ({"a": "class C:\n    def f(self):\n        self.x = 1\n        return self.x\n"}, [], []),
    ({"a": "class C:\n    def f(self):\n        self.x, self.y = 1, 2\n"}, ["c.y\n"], ["a.x"]),
    ({"a": "class C:\n    def f(self):\n        self.n += 1\n"}, [], ["a.n"]),
    ({"a": "class C:\n    def f(self):\n        self.x = 1\n"}, ["print(err.x)\n"], []),
    ({"a": "class C:\n    def f(self, o):\n        o.x = 1\n"}, [], []),
])
def test_the_unread_attribute_check_reads_each_form(package, readers, found):
    assert _unread_attributes(package, readers) == found


def test_every_stored_attribute_is_read():
    package = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    found = _unread_attributes(package, [p.read_text(encoding="utf-8") for p in BENCH + TESTS])
    assert not found, "stored on self and read nowhere: %s" % found


def _calls(tree) -> list[tuple[str, int, set[str], bool]]:
    """(callee name, positional count, keyword names, whether a ``*`` or
    ``**`` argument may pass anything) of each call in ``tree``; a
    ``partial(f, ...)`` counts as a call of ``f`` with the arguments it binds."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        name = getattr(func, "id", getattr(func, "attr", None))
        if name == "partial" and args:
            func, args = args[0], args[1:]
            name = getattr(func, "id", getattr(func, "attr", None))
        keywords = {kw.arg for kw in node.keywords}
        starred = None in keywords or any(isinstance(arg, ast.Starred) for arg in args)
        out.append((name, len(args), keywords, starred))
    return out


def _unpassed_defaults(package: dict[str, str], callers: list[str], public: bool = False) -> list[str]:
    """``module.function.parameter`` of each defaulted parameter of a private
    (or, with ``public``, a public) top-level function in ``package`` (module
    name -> source) that no call in ``package`` or ``callers`` passes."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    calls = [call for tree in list(trees.values()) + [ast.parse(s) for s in callers] for call in _calls(tree)]
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, _FUNCTIONS) or node.name.startswith("_") == public:
                continue
            mine = [call for call in calls if call[0] == node.name]
            positional = node.args.posonlyargs + node.args.args
            defaulted = [(i, arg.arg) for i, arg in enumerate(positional)][len(positional) - len(node.args.defaults):]
            defaulted += [(None, arg.arg) for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                          if default is not None]
            for index, param in defaulted:
                if not any(starred or param in keywords or (index is not None and count > index)
                           for _, count, keywords, starred in mine):
                    found.append("%s.%s.%s" % (module, node.name, param))
    return found


@pytest.mark.parametrize("package, callers, found", [
    ({"a": "def _f(x, y=1): pass\n_f(0)\n"}, [], ["a._f.y"]),
    ({"a": "def _f(x, y=1): pass\n_f(0, 2)\n"}, [], []),
    ({"a": "def _f(x, y=1): pass\n_f(0, y=2)\n"}, [], []),
    ({"a": "def _f(x, y=1): pass\n"}, ["m._f(0, 2)\n"], []),
    ({"a": "def _f(x, y=1): pass\ng = partial(_f, y=2)\n"}, [], []),
    ({"a": "def _f(x, y=1): pass\n_f(*xs)\n"}, [], []),
    ({"a": "def _f(x, y=1): pass\n_f(**kw)\n"}, [], []),
    ({"a": "def _f(x, *, y=1): pass\n_f(0)\n"}, [], ["a._f.y"]),
    ({"a": "def _f(x=0, y=1): pass\n_f(0)\n"}, [], ["a._f.y"]),
    ({"a": "def f(x, y=1): pass\nf(0)\n"}, [], []),
    ({"a": "class C:\n    def _f(self, y=1): pass\n"}, [], []),
])
def test_the_unpassed_default_check_reads_each_form(package, callers, found):
    assert _unpassed_defaults(package, callers) == found


def test_every_private_default_is_passed():
    package = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    found = _unpassed_defaults(package, [p.read_text(encoding="utf-8") for p in BENCH])
    assert not found, "defaulted and never passed: %s" % found


@pytest.mark.parametrize("package, callers, found", [
    ({"a": "def f(x, y=1): pass\nf(0)\n"}, [], ["a.f.y"]),
    ({"a": "def f(x, y=1): pass\n"}, ["m.f(0, y=2)\n"], []),
    ({"a": "def f(x, *, y=1): pass\n"}, ["f(0)\n"], ["a.f.y"]),
    ({"a": "def _f(x, y=1): pass\n_f(0)\n"}, [], []),
])
def test_the_public_default_check_reads_each_form(package, callers, found):
    assert _unpassed_defaults(package, callers, public=True) == found


def test_every_public_default_is_passed():
    package = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    found = _unpassed_defaults(package, [p.read_text(encoding="utf-8") for p in BENCH + TESTS], public=True)
    assert not found, "defaulted and never passed, not even by a test: %s" % found


IMAGE_KERNELS = {"_mat_vec_mul", "_payload_mat_vec_mul", "_apply_f_int", "_window_map",
                 "_aligned_rows", "_bits_int", "_int_bits", "_int_payload", "_image"}
IMAGE_HOMES = {"gf2core", "nlfunc", "protocols"}


def _image_kernel_uses(package: dict[str, str]) -> list[str]:
    """``module.name`` of each :data:`IMAGE_KERNELS` name that a module of
    ``package`` (module name -> source) outside :data:`IMAGE_HOMES` imports
    or reads as an attribute."""
    return sorted({
        "%s.%s" % (module, name)
        for module, source in package.items() if module not in IMAGE_HOMES
        for node in ast.walk(ast.parse(source))
        for name in ([alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.attr] if isinstance(node, ast.Attribute) else [])
        if name in IMAGE_KERNELS
    })


@pytest.mark.parametrize("package, found", [
    ({"a": "from .gf2core import _bits_int, as_bits\n"}, ["a._bits_int"]),
    ({"a": "from .gf2core import (\n    _mat_vec_mul as mul,\n)\n"}, ["a._mat_vec_mul"]),
    ({"a": "from . import gf2core\ngf2core._int_bits(1, 2)\n"}, ["a._int_bits"]),
    ({"a": "from .protocols import _expected, _image\n"}, ["a._image"]),
    ({"a": "from .protocols import _expected, _answer\n"}, []),
    ({"protocols": "from .nlfunc import _apply_f_int\n", "nlfunc": "from .gf2core import _bits_int\n"}, []),
    ({"a": "def _image(): pass\n"}, []),
])
def test_the_image_kernel_check_reads_each_form(package, found):
    assert _image_kernel_uses(package) == found


def test_exchange_images_are_built_in_protocols():
    package = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    found = _image_kernel_uses(package)
    assert not found, "an image kernel used outside gf2core, nlfunc and protocols: %s" % found

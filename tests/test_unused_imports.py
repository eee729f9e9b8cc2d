"""Every module-level import, private name and unexported public name in the package is used
(a linter stand-in on the standard library)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "focklab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def unused_private_names(source: str) -> list[str]:
    """Module-level ``_name`` functions, classes and assignments that the module never reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    defined[target.id] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in defined.items()
                  if name.startswith("_") and not name.startswith("__") and name not in read)


def measure_type_checks(source: str, allowed=("dimension",)) -> list[str]:
    """``isinstance`` calls on a class of the module (or an alias built from one) outside ``allowed`` functions."""
    tree = ast.parse(source)
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and classes & {n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)}:
            classes |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "isinstance"
                    and len(child.args) == 2 and scope not in allowed
                    and classes & {n.id for n in ast.walk(child.args[1]) if isinstance(n, ast.Name)}):
                found.append(f"{scope} (line {child.lineno})")
            visit(child, inner)

    visit(tree, "<module>")
    return found


def unread_method_parameters(source: str) -> list[str]:
    """Positional parameters (after ``self``) of the module's class methods that no
    implementation of the same method name reads, as ``method: name``."""
    tree = ast.parse(source)
    slots = {}  # (method, position) -> (parameter names seen there, read by some implementation)
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        for fn in (node for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))):
            loads = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for pos, arg in enumerate((fn.args.posonlyargs + fn.args.args)[1:]):
                names, read = slots.get((fn.name, pos), (set(), False))
                slots[fn.name, pos] = (names | {arg.arg}, read or arg.arg in loads)
    return sorted(f"{method}: {'/'.join(sorted(names))}" for (method, _), (names, read) in slots.items() if not read)


def referenced_names(node) -> set[str]:
    """Every name ``node`` mentions: identifiers, attributes, imported names and string constants."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            found.add(n.value)
    return found


def unreferenced_public_names(modules: dict[str, str], exported: set[str], elsewhere=()) -> list[str]:
    """Public module-level functions and classes of ``modules`` (name -> source) outside ``exported``
    that nothing references outside their own definition: no other definition or module-level
    statement of ``modules`` and no source in ``elsewhere``, as ``module.name``."""
    definitions, outside = [], set().union(*(referenced_names(ast.parse(s)) for s in elsewhere))
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((module, node, referenced_names(node)))
            else:
                outside |= referenced_names(node)
    return sorted(f"{module}.{node.name}" for module, node, _ in definitions
                  if not node.name.startswith("_") and node.name not in exported and node.name not in outside
                  and not any(node.name in names for _, other, names in definitions if other is not node))


def block_size_readers(modules: dict[str, str], owned=("_BLOCK", "MAX_EVALS", "MAX_NODES")) -> list[str]:
    """The modules of ``modules`` (name -> source) other than ``quadrature`` that import or read one of
    the ``owned`` names (the block size and the two refusal caps), as ``module: name``."""
    return sorted(f"{module}: {name}" for module, source in modules.items() if module != "quadrature"
                  for name in sorted(referenced_names(ast.parse(source)) & set(owned)))


def axis_factor_readers(modules: dict[str, str], allowed=("measures", "spectral")) -> list[str]:
    """The calls of ``.axis_factors()`` in the modules of ``modules`` (name -> source) outside
    ``allowed``, as ``module (line n)``."""
    return sorted(f"{module} (line {node.lineno})" for module, source in modules.items() if module not in allowed
                  for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute) and node.func.attr == "axis_factors")


def dense_substitution_uses(source: str, dense=("substitution_matrix", "vx_matrix")) -> list[str]:
    """Imports, names and attributes in ``source`` that reach a function forming the dense N x N V_X,
    as ``name (line n)``; a pushforward's table is conjugated by ``substitution_blocks`` alone."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = getattr(node, {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}.get(type(node), ""), None)
        if name in dense:
            found.append(f"{name} (line {node.lineno})")
    return sorted(found)


def power_table_calls(source: str, builders=("orthonormal_powers", "monomial_matrix")) -> list[str]:
    """Calls of a power-table builder inside ``AlphaHorizontal.moments`` in ``source``, as ``name (line n)``:
    the horizontal one-axis tables come from the one kernel builder, and ``moments`` only contracts them."""
    found = []
    for cls in (node for node in ast.parse(source).body if isinstance(node, ast.ClassDef)):
        for fn in (node for node in cls.body if cls.name == "AlphaHorizontal" and isinstance(node, ast.FunctionDef)):
            for call in (node for node in ast.walk(fn) if fn.name == "moments" and isinstance(node, ast.Call)):
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                if name in builders:
                    found.append(f"{name} (line {call.lineno})")
    return sorted(found)


def test_horizontal_moments_build_no_power_table():
    # the kernel builder stays the only route to a horizontal one-axis table
    assert power_table_calls((PACKAGE / "measures.py").read_text()) == []


def test_detector_flags_a_power_table_in_horizontal_moments():
    source = ("class AlphaHorizontal:\n    def moments(self, d, q):\n        '''not orthonormal_powers'''\n"
              "        g = _rule_kernel(q, d, 0)\n        return orthonormal_powers(d, g), indices.monomial_matrix(g, d)\n"
              "    def nodes(self, d):\n        return orthonormal_powers(d, 0)\n"
              "class Density:\n    def moments(self, d, q):\n        return orthonormal_powers(d, q)\n")
    assert power_table_calls(source) == ["monomial_matrix (line 5)", "orthonormal_powers (line 5)"]


def test_measures_never_build_the_dense_substitution_matrix():
    # block conjugation stays the only pushforward route: no N x N V_X, no dense C^T m conj(C)
    assert dense_substitution_uses((PACKAGE / "measures.py").read_text()) == []


def test_detector_flags_a_dense_substitution_matrix():
    source = ("from .indices import select_table, substitution_blocks, substitution_matrix\n"
              "from . import lagrangian\n"
              "def moments(x, keys):\n    '''not substitution_matrix'''\n"
              "    blocks = substitution_blocks(x, 2, 4)\n"
              "    return lagrangian.vx_matrix(x, keys), substitution_matrix(x, keys)\n")
    assert dense_substitution_uses(source) == ["substitution_matrix (line 1)", "substitution_matrix (line 6)",
                                               "vx_matrix (line 6)"]


def test_only_measures_and_spectral_read_product_structure():
    # the entry points of measures and gamma_samples read the one statement of product
    # structure; every other module reaches it through them
    assert axis_factor_readers({p.stem: p.read_text() for p in MODULES}) == []


def test_detector_flags_an_axis_factors_reader():
    modules = {"measures": "def f(mu):\n    return mu.axis_factors()\n",
               "spectral": "def g(rho):\n    return rho.axis_factors()\n",
               "toeplitz": "def h(mu):\n    '''reads axis_factors()'''\n    return mu.axis_factors() is None\n"}
    assert axis_factor_readers(modules) == ["toeplitz (line 3)"]


def test_only_quadrature_sizes_a_block_or_reads_a_cap():
    # a second block size, or a refusal cap borrowed as one, would split the one block owner
    assert block_size_readers({p.stem: p.read_text() for p in MODULES}) == []


def test_detector_flags_a_borrowed_block_size():
    modules = {"quadrature": "_BLOCK = 8\nMAX_EVALS = 9\ndef blocks(n):\n    return n // _BLOCK\n",
               "measures": "from .quadrature import MAX_EVALS, blocks\nSTEP = MAX_EVALS // 4\n",
               "spectral": "from . import quadrature\ndef f():\n    return quadrature._BLOCK\n",
               "cli": "def g():\n    '''refused past MAX_NODES points'''\n"}
    assert block_size_readers(modules) == ["measures: MAX_EVALS", "spectral: _BLOCK"]


def test_every_unexported_public_name_is_referenced():
    # a public name that neither the package exports nor any code reads is dead code
    exported = {alias.asname or alias.name for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    elsewhere = [p.read_text() for d in ("scripts", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert unreferenced_public_names({p.stem: p.read_text() for p in MODULES}, exported, elsewhere) == []


def test_detector_flags_an_unreferenced_public_name():
    modules = {"a": "def kept():\n    return helper()\ndef helper():\n    return 1\n"
                    "def dead(x):\n    return dead(x - 1)\nclass Dead:\n    pass\ndef _private():\n    pass\n",
               "b": "from .a import kept\nTABLE = {'named': 1}\ndef named():\n    pass\ndef tool():\n    pass\n"}
    assert unreferenced_public_names(modules, {"kept"}, ["from focklab.b import tool\n"]) == ["a.Dead", "a.dead"]


def test_measure_protocol_parameters_are_read():
    # a protocol knob that every implementation ignores is an option nobody can use
    assert unread_method_parameters((PACKAGE / "measures.py").read_text()) == []


def test_detector_flags_a_dead_method_parameter():
    source = ("class A:\n    def f(self, x, knob):\n        return x\n"
              "class B(A):\n    def f(self, y, knob=0):\n        return 2 * y\n"
              "    def g(self, used, ignored):\n        return used\n"
              "class C(A):\n    def g(self, a, b):\n        return lambda: b\n")
    assert unread_method_parameters(source) == ["f: knob"]


def test_measures_dispatch_on_type_only_in_dimension():
    # every other type-dependent step is a method of the measure classes
    assert measure_type_checks((PACKAGE / "measures.py").read_text()) == []


def test_detector_flags_a_measure_type_check():
    source = ("class A:\n    pass\nclass B(A):\n    pass\nEither = A | B\n"
              "def dimension(mu):\n    return isinstance(mu, A)\n"
              "def f(mu, p):\n    return isinstance(p, tuple) or isinstance(mu, (int, B))\n"
              "class C(A):\n    def g(self, mu):\n        return isinstance(mu, Either)\n")
    assert measure_type_checks(source) == ["f (line 9)", "g (line 12)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text()) == []


def test_detector_flags_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == ["math (line 1)", "path (line 2)"]


def test_detector_flags_an_unused_private_name():
    source = "_A = 1\n_B: int = 2\n__all__ = []\ndef _f():\n    return _B\nclass _C:\n    pass\npublic = _f\n"
    assert unused_private_names(source) == ["_A (line 1)", "_C (line 6)"]

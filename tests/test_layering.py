"""Module layering of ``src/anacap``, read from the source with ``ast``.

``basis`` and ``geometry`` sit below the assembly and solve layers, so that a
verifier of brackets can evaluate members on a boundary from them alone; the
exact corner displacements of a boundary piece are spliced into member
values in ``basis`` only (``BasisSet.eval_parts``); ``basis``, like the
assembly and solve layers above it, reads every boundary in the coefficient
form of ``geometry.arcs``, naming no shape or piece class; and only
``geometry`` calls ``arcs``, once per shape for ``Scene.boundaries``.

``basis``, ``integrals``, ``quadrature`` and ``solver`` make no matrix
product through NumPy: their products run on SciPy's BLAS
(``anacap._lapack``), and a NumPy product would wake NumPy's own OpenBLAS
thread pool, which stalls SciPy's (see ``integrals._quad_blocks``).

The basis members ``PowerPole`` and ``CornerAdapted`` are records that
define no function: ``basis.BasisSet`` alone reads a member, for its values
and for its d at infinity.

No test calls ``pytest.approx`` with ``rel=`` and no ``abs=``: a relative
tolerance alone still accepts approx's default absolute error of 1e-12.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "anacap"
UPPER = {"integrals", "quadrature", "solver", "sublab", "cli"}
DISPLACEMENTS = {"disp_start", "disp_end"}
SHAPE_CLASSES = {"Disk", "Ellipse", "Polygon", "ArcChain", "Segment", "CircularArc"}
NUMPY_PRODUCTS = {"dot", "matmul", "einsum", "linalg"}
MEMBER_RECORDS = {"PowerPole", "CornerAdapted"}


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / f"{name}.py").read_text(), filename=f"{name}.py")


def _imported_modules(tree: ast.Module) -> set[str]:
    """The ``anacap`` modules a module imports, by their last name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[-1] for a in node.names if a.name.startswith("anacap.")}
        elif isinstance(node, ast.ImportFrom):
            if (node.level and not node.module) or node.module == "anacap":
                # from . import x, from anacap import x
                out |= {a.name for a in node.names}
            elif node.level > 0 or node.module.startswith("anacap."):
                out.add(node.module.split(".")[-1])
    return out


def _callers_of(tree: ast.Module, names: set[str]) -> list[int]:
    """Lines of the calls of a function or method named in names."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) in names]


def _names(tree: ast.Module) -> set[str]:
    """Every name, attribute and imported name of a module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
    return out


def _numpy_products(tree: ast.Module) -> list[int]:
    """Lines of the matrix products made through NumPy: ``@`` and ``@=``,
    and ``dot``, ``matmul``, ``einsum`` or ``linalg`` read from ``np`` or
    ``numpy`` or imported from it."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            lines.add(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr in NUMPY_PRODUCTS
              and getattr(node.value, "id", None) in {"np", "numpy"}):
            lines.add(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None)
            for name in (f"{module}.{a.name}" if module else a.name for a in node.names):
                if name.split(".")[0] == "numpy" and NUMPY_PRODUCTS & set(name.split(".")):
                    lines.add(node.lineno)
    return sorted(lines)


def _class_functions(tree: ast.Module, names: set[str]) -> dict[str, list[str]]:
    """The functions that each class named in names defines, nested ones too."""
    return {node.name: [f.name for f in ast.walk(node)
                        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and node.name in names}


def _rel_only_approx(tree: ast.Module) -> list[int]:
    """Lines of the ``approx`` calls with ``rel=`` and no ``abs=``."""
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) == "approx"]
    return [c.lineno for c in calls if {"rel", "abs"} & {k.arg for k in c.keywords} == {"rel"}]


@pytest.mark.parametrize("name", ["basis", "geometry"])
def test_lower_modules_import_no_upper_layer(name):
    assert not _imported_modules(_tree(name)) & UPPER


def test_only_basis_splices_corner_displacements():
    modules = sorted(p.stem for p in SRC.glob("*.py"))
    assert "basis" in modules and "integrals" in modules
    callers = {m: _callers_of(_tree(m), DISPLACEMENTS) for m in modules if m != "basis"}
    assert {m: lines for m, lines in callers.items() if lines} == {}
    assert _callers_of(_tree("basis"), DISPLACEMENTS)


def test_only_geometry_forms_boundaries():
    modules = sorted(p.stem for p in SRC.glob("*.py"))
    callers = {m: _callers_of(_tree(m), {"arcs"}) for m in modules if m != "geometry"}
    assert {m: lines for m, lines in callers.items() if lines} == {}
    assert _callers_of(_tree("geometry"), {"arcs"})


@pytest.mark.parametrize("name", ["basis", "integrals", "quadrature", "solver"])
def test_names_no_shape_or_piece_class(name):
    assert not _names(_tree(name)) & SHAPE_CLASSES


@pytest.mark.parametrize("name", ["basis", "integrals", "quadrature", "solver"])
def test_makes_no_numpy_matrix_product(name):
    assert _numpy_products(_tree(name)) == []


def test_basis_members_define_no_functions():
    assert _class_functions(_tree("basis"), MEMBER_RECORDS) == {n: [] for n in MEMBER_RECORDS}


def test_no_rel_only_approx_in_the_tests():
    found = {p.name: _rel_only_approx(ast.parse(p.read_text(), str(p)))
             for p in sorted(TESTS.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_checks_see_what_they_look_for():
    # the scans find an upper-layer import and a displacement call in each form
    src = ("from .integrals import x\nfrom . import solver\nimport anacap.cli\n"
           "from anacap.sublab import y\nfrom anacap import quadrature\n"
           "arc.disp_start(t)\ndisp_end(s)\ngeometry.arcs(shape)\narcs(s)\n")
    tree = ast.parse(src)
    assert _imported_modules(tree) == UPPER
    assert _callers_of(tree, DISPLACEMENTS) == [6, 7]
    assert _callers_of(tree, {"arcs"}) == [8, 9]
    # and a shape or piece class named, called, read as an attribute or imported
    src = ("isinstance(s, Disk)\nEllipse(0j, 2.0, 1.0)\ngeometry.Polygon\n"
           "from .geometry import ArcChain\nx: Segment\nimport anacap.geometry.CircularArc\n")
    assert _names(ast.parse(src)) & SHAPE_CLASSES == SHAPE_CLASSES
    # and an approx with rel= and no abs=, also split over lines
    src = ("pytest.approx(1.0, rel=1e-9)\napprox(2.0, rel=1e-9, abs=0)\napprox(3.0)\n"
           "approx(\n    4.0,\n    rel=1e-9)\n")
    assert _rel_only_approx(ast.parse(src)) == [1, 4]
    # and a function defined in a member class, a method or a nested one, but
    # not one of another class
    src = ("class PowerPole:\n    k: int\n\n    def d_infinity(self):\n        return 0j\n"
           "class CornerAdapted:\n    class Inner:\n        async def f(self):\n            pass\n"
           "class BasisSet:\n    def d_vector(self):\n        pass\n")
    assert _class_functions(ast.parse(src), MEMBER_RECORDS) == {"PowerPole": ["d_infinity"],
                                                                "CornerAdapted": ["f"]}
    # and a NumPy matrix product in each form, but not an elementwise one
    src = ("a @ b\na @= b\nnp.dot(a, b)\nnumpy.matmul(a, b)\nnp.einsum('ij,jk', a, b)\n"
           "np.linalg.solve(a, b)\nfrom numpy import dot\nfrom numpy.linalg import cholesky\n"
           "import numpy.linalg\na * b\nnp.vdot(a, b)\nzherk(1.0, a)\n")
    assert _numpy_products(ast.parse(src)) == [1, 2, 3, 4, 5, 6, 7, 8, 9]

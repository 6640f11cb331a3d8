"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "halphen"


def test_no_floating_point_literals():
    """The library is exact arithmetic: no float constant appears in it."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant)
                    and isinstance(node.value, (float, complex))):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_runtime_imports_only_the_standard_library():
    """The runtime needs nothing beyond the standard library."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names]
    assert found == []


def _names_reached(module, roots):
    """(functions, names): the module functions reached from `roots` and
    every name they refer to, as a name or an attribute."""
    tree = ast.parse((SRC / module).read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    todo, seen, names = list(roots), set(), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        todo += [n for n in names if n in functions]
    return seen, names


def test_bruteforce_enumeration_is_independent_of_the_generative_one():
    """The brute-force (-1)-class search uses none of the generative tools.

    The two enumerations of the 144 classes cross-check each other only if
    they share no code: walk `enumerate_minus1_bruteforce` and every module
    function it reaches, and collect each name they refer to.
    """
    seen, names = _names_reached("piclattice.py", ["enumerate_minus1_bruteforce"])
    assert {"enumerate_minus1_bruteforce", "inner"} <= seen
    forbidden = {"enumerate_minus1_generative", "fiber_components_missing",
                 "_translates", "F0_CLASS", "basis_e", "is_minus1_class"}
    assert names & forbidden == set()


def test_lattice_algebra_is_on_integers():
    """`piclattice` imports nothing from the field module and names
    neither `QQ_EPS` nor `solve`: the deck involution is read off
    intersection numbers, not solved for over Q(e)."""
    tree = ast.parse((SRC / "piclattice.py").read_text())
    sources = {node.module or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "field" not in sources
    assert _module_names("piclattice.py") & {"QQ_EPS", "solve"} == set()


def _refers(node, own):
    """Every name and attribute referred to under `node`, except `own`."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))} - {own}


def test_every_top_level_definition_is_used_by_the_program():
    """No function, class or method in the package is reached only from
    the tests.

    Each top-level def and class of `src/halphen`, and each method of its
    classes but the dunders, must be referred to, as a name or an
    attribute, outside its own definition somewhere in the package, the
    demos or the benchmark, or be exported by the package's `__init__`; an
    oracle that only tests call belongs in the tests.
    """
    root = SRC.parents[1]
    defined, methods_defined = set(), set()
    used = {alias.name for node in ast.parse((SRC / "__init__.py").read_text()).body
            if isinstance(node, ast.ImportFrom) for alias in node.names}
    for folder in (SRC, root / "demos", root / "perfbench"):
        for path in sorted(folder.rglob("*.py")):
            for top in ast.parse(path.read_text(), filename=str(path)).body:
                if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                    used |= _refers(top, None)
                    continue
                methods = [node for node in top.body
                           if isinstance(top, ast.ClassDef)
                           and isinstance(node, ast.FunctionDef)]
                for node in ast.iter_child_nodes(top):
                    own = node.name if node in methods else None
                    used |= _refers(node, own) - {top.name}
                if folder == SRC:
                    defined.add(top.name)
                    methods_defined |= {
                        f"{top.name}.{node.name}" for node in methods
                        if not (node.name.startswith("__")
                                and node.name.endswith("__"))}
    assert len(defined) > 100 and len(methods_defined) > 50
    assert sorted(defined - used) == []
    assert sorted(m for m in methods_defined
                  if m.partition(".")[2] not in used) == []


def _module_names(module):
    """Every name a module refers to or defines: names, attributes,
    function and class names, and imported names."""
    names = set()
    for node in ast.walk(ast.parse((SRC / module).read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_group_law_has_no_generic_path():
    """The Hesse group law finds third intersections by closed forms only.

    Restricting the cubic to the line and dividing out the known roots is
    the test oracle `generic_third`, not a path of `cubic.py`.
    """
    forbidden = {"restrict_to_line", "bf_divide_linear", "line_basis",
                 "coordinates_on_line", "generic_third"}
    assert _module_names("cubic.py") & forbidden == set()


def test_order_walk_builds_no_points():
    """`CubicGroup.orders` walks canonical coordinates under the group's
    coordinate law: it builds no point, adds no points and re-checks no
    point on the curve; the per-field closed-form methods are gone, and
    one law class serves every field."""
    tree = ast.parse((SRC / "cubic.py").read_text())
    classes = {node.name: node for node in tree.body
               if isinstance(node, ast.ClassDef)}
    methods = {node.name: node for node in classes["CubicGroup"].body
               if isinstance(node, ast.FunctionDef)}
    names = {node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(methods["orders"])
             if isinstance(node, (ast.Name, ast.Attribute))}
    assert {"_law", "residual"} <= names
    assert names & {"ProjPoint", "add", "third_intersection",
                    "require_on_curve"} == set()
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined & {"_closed_form_residues", "_closed_form_elements"} == set()
    assert {name for name in classes if "Law" in name} == {"_Law"}


def test_fraction_free_kernel_takes_no_gcd():
    """The Q(e)(a) kernel of `linalg.py` stays on Z[e][a] polynomials.

    Its row clearing, elimination and back-substitution name neither
    `_fraction` nor `_zgcd`: no quotient is brought to canonical form.
    """
    seen, names = _names_reached("linalg.py", ["_cleared", "_kernel_zea"])
    assert {"_exact_quotient", "_dot"} <= seen
    assert {"_zquo", "_lead_conjugate", "_zmul"} <= names
    assert names & {"_fraction", "_zgcd"} == set()


def test_local_data_is_read_from_hasse_rows_only():
    """Values, gradients, multiplicity conditions and tangent cones at a
    point come from `plane.hasse_rows`: no module built on it takes
    symbolic partials, builds monomials one by one, substitutes linear
    forms or tests residual roots for a shared one, and `Poly3` has no
    derivative to take."""
    forbidden = {"partial", "gradient", "monomial", "substitute_linear",
                 "_bf_share_root"}
    for module in ("torsion.py", "piclattice.py", "chilean.py", "invariants.py"):
        names = _module_names(module)
        assert "hasse_rows" in names, module
        assert names & forbidden == set(), module
    poly3 = next(node for node in ast.parse((SRC / "plane.py").read_text()).body
                 if isinstance(node, ast.ClassDef) and node.name == "Poly3")
    methods = {node.name for node in poly3.body if isinstance(node, ast.FunctionDef)}
    assert "coefficients" in methods
    assert methods & {"partial", "gradient"} == set()


def test_census_restricts_lines_only_to_conics():
    """The arrangement census counts a line's points off the candidates by
    Bezout: it restricts a line only to a conic it shares no candidate
    with, divides out no root, and needs no coordinates on the line."""
    forbidden = {"bf_divide_linear", "coordinates_on_line"}
    assert _module_names("invariants.py") & forbidden == set()
    assert "restrict_to_line" in _module_names("invariants.py")
    defined = {node.name for node in ast.parse((SRC / "plane.py").read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert "coordinates_on_line" not in defined


def test_torsion_questions_share_one_group_and_skip_hopeless_primes():
    """`hesse_collinear_curves` builds one `CubicGroup`, the census law,
    and names no `negate` in it or in the functions it reaches: there is no
    second zero to translate to.  `find_specialization` starts its scan at
    `min_prime_for_order`, below which no curve can answer."""
    tree = ast.parse((SRC / "torsion.py").read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    groups = [node for node in ast.walk(functions["hesse_collinear_curves"])
              if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "CubicGroup"]
    assert len(groups) == 1
    seen, names = _names_reached("torsion.py", ["hesse_collinear_curves"])
    assert {"collinear_balances", "translated_points", "_census"} <= seen
    assert "negate" not in names
    _, names = _names_reached("torsion.py", ["find_specialization"])
    assert "min_prime_for_order" in names


def test_configuration_objects_have_one_construction():
    """The a = -2 nodes come from `fiber_nodes`, which builds every node,
    with no shared-point loop beside it; `cross_ratio` works on homogeneous
    pairs with no INFINITY bookkeeping; the symmetry group is six products,
    with no closure loop."""
    tree = ast.parse((SRC / "chilean.py").read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    configuration = next(node for node in tree.body if isinstance(node, ast.ClassDef)
                         and node.name == "Configuration")
    method = next(node for node in configuration.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "degenerate_nodes_and_vertices")
    names = _refers(method, method.name)
    assert "fiber_nodes" in names
    assert "fourth_intersection" not in names
    assert "INFINITY" not in _refers(functions["cross_ratio"], "cross_ratio")
    assert not any(isinstance(node, ast.While)
                   for node in ast.walk(functions["symmetry_group"]))


def test_only_the_field_module_knows_the_field_kinds():
    """Each field's inner-loop form is chosen in `field.py` alone, by
    `Field.packing`: no other module names the finite fields' element and
    form classes, and the modules that compute in the forms read no
    element's residue (`.v`) or code (`.code`) and no packing table
    (`.packed`)."""
    kinds = {"PrimeField", "GFpElem", "GFpkElem", "Packing"}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "field.py":
            assert _module_names(path.name) & kinds == set(), path.name
    for module in ("plane.py", "cubic.py", "linalg.py", "torsion.py"):
        read = {node.attr for node in ast.walk(ast.parse((SRC / module).read_text()))
                if isinstance(node, ast.Attribute)}
        assert read & {"v", "code", "packed"} == set(), module


def test_startup_loads_no_parsing_or_introspection_modules():
    """`import halphen.cli`, which every run does first, loads no module
    that only parsing or introspection needs: `parse_expression` imports
    `ast` itself."""
    banned = ("ast", "inspect", "dataclasses", "tokenize", "dis")
    code = f"import sys, halphen.cli; print([m for m in {banned!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert done.stdout.strip() == "[]"

"""Every ``raise ConsistencyError`` site in ``src`` has a test that fires it.

The sites are found in the source by AST, keyed by module, function and
the start of the message (formatted values written as ``{}``), with no
line numbers, so a new site without an entry in ``FIRING_TESTS`` fails
here until its firing test is named.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "bidouble"
TESTS = pathlib.Path(__file__).resolve().parent

# (module, function, message prefix) -> (test file, test function)
FIRING_TESTS = {
    ("classify", "classify_triple", "parity obstruction failed to fire"):
        ("test_classify.py", "test_parity_obstruction_fires"),
    ("classify", "classify_triple", "line-bundle verdict {} on {} disagrees"):
        ("test_cli.py", "test_closed_form_cross_check_exits_3"),
    ("lattice", "_genus", "D^2 + D.K = {} is odd"):
        ("test_cli.py", "test_search_lattice_odd_adjunction_exits_3"),
    ("construction", "_build_recipe", "m = {} < 3"):
        ("test_construction.py", "test_build_recipe_guards_fire"),
    ("construction", "_build_recipe", "M = {} is odd"):
        ("test_construction.py", "test_build_recipe_guards_fire"),
    ("construction", "_check_recipe", "recipe layout failed"):
        ("test_construction.py", "test_check_recipe_layout_fires"),
    ("construction", "_check_recipe", "recipe verification failed"):
        ("test_construction.py", "test_verify_recipe_detects_tampering"),
    ("geometry", "invariants", "chi formula produced a non-integer"):
        ("test_geometry.py", "test_chi_integrality_check_fires"),
    ("geometry", "invariants", "Noether's formula fails"):
        ("test_geometry.py", "test_noether_route_fires"),
    ("geometry", "picard_classification", "pairwise rho test"):
        ("test_geometry.py", "test_picard_pairs_vs_family_list_fires"),
    ("numerics", "_check_special_c2", "special c2 mismatch"):
        ("test_numerics.py", "test_special_c2_two_routes_fire"),
    ("numerics", "_check_q1", "q = 1 reduction identity failed"):
        ("test_numerics.py", "test_rank1_q1_identity_fires"),
    ("numerics", "_check_quadric", "n^2 + 1 = {} tested as a perfect square"):
        ("test_numerics.py", "test_quadric_discriminant_guard_fires"),
    ("numerics", "_check_quadric", "quadric discriminant route leaves no integer root for "
                                   "n = {}, but bisection"):
        ("test_numerics.py", "test_quadric_bisection_fires"),
    ("numerics", "p1xp1_line_search", "quadric discriminant route leaves no integer root "
                                      "for n = {}, but the box"):
        ("test_numerics.py", "test_quadric_box_cross_check_fires"),
    ("numerics", "_check_certificate", "certificate mismatch on"):
        ("test_numerics.py", "test_certificate_fires_on_a_failed_number"),
}


def _message(node: ast.expr) -> str:
    """The literal text of a message, with ``{}`` for each formatted value."""
    if isinstance(node, ast.Constant):
        return str(node.value)
    if isinstance(node, ast.JoinedStr):
        return "".join(
            str(part.value) if isinstance(part, ast.Constant) else "{}" for part in node.values
        )
    return "{}"


class _RaiseSites(ast.NodeVisitor):
    """Collects (module, innermost function, message) of every
    ``raise ConsistencyError(...)`` in one module."""

    def __init__(self, module: str):
        self.module = module
        self.functions = ["<module>"]
        self.sites = []

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Raise(self, node):
        exc = node.exc
        if isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == "ConsistencyError":
            message = _message(exc.args[0]) if exc.args else ""
            self.sites.append((self.module, self.functions[-1], message))
        self.generic_visit(node)


def raise_sites() -> list[tuple[str, str, str]]:
    """(module, function, message) of every ``raise ConsistencyError(...)``."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _RaiseSites(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        sites += visitor.sites
    return sites


def test_every_consistency_site_has_a_firing_test():
    unmapped = []
    used = set()
    for module, function, message in raise_sites():
        keys = [
            key for key in FIRING_TESTS
            if key[:2] == (module, function) and message.startswith(key[2])
        ]
        assert len(keys) <= 1, (module, function, message, keys)
        if keys:
            used.add(keys[0])
        else:
            unmapped.append((module, function, message[:60]))
    assert not unmapped, f"raise sites without a firing test: {unmapped}"
    assert used == set(FIRING_TESTS), f"entries naming no site: {set(FIRING_TESTS) - used}"


def test_each_named_firing_test_exists():
    for test_file, test_name in set(FIRING_TESTS.values()):
        tree = ast.parse((TESTS / test_file).read_text(encoding="utf-8"))
        names = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert test_name in names, (test_file, test_name)

"""Source hygiene: no unused import in the package or the tests, no
unreferenced definition in the package, no public definition or public
method that only tests call unless it is listed, the criterion module kept
off the brute-force scan, and the oracle's brute references kept off the
criterion.

The checks read the source with the stdlib ast module.  A name counts as
used when it appears as a name, an attribute, an import or an identifier
string (bench/tracing.py names the functions it wraps by string).  A method
counts as called only through an attribute or an identifier string, and not
from inside a function of its own name: a local variable that shares its
name, or a method that delegates to its namesake, calls nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mfnear"

# imports kept although the importing module does not use them
UNUSED_IMPORT_ALLOWED = {
    ("oracle", "is_bent"): "bench/tracing.py WRAPS patches oracle.is_bent",
    ("cli", "realize_near"): "bench/tracing.py WRAPS patches cli.realize_near",
}

# public definitions that only tests call, kept on purpose
TEST_ONLY_API_ALLOWED = {
    ("boolfun", "ea_transform"): "EA-invariance tests; the planned affine-class enumerator will call it",
    ("counting", "sigma2_closed"): "the paper's closed form, checked against sigma(n, 2)",
    ("counting", "sigma3_closed"): "the paper's closed form, checked against sigma(n, 3)",
    ("counting", "near_average_decomposed"): "the paper's closed form, checked against near_average",
    ("counting", "near_average_upper"): "the paper's upper bound, checked above near_average",
    ("counting", "near_mf_ratio_decomposed"): "the paper's closed form, checked against near_mf_ratio",
    ("counting", "beta_lower"): "the paper's lower bound, checked below beta",
    ("counting", "mfc_lower_closed"): "the paper's closed lower bound, checked against mfc_bounds",
}

# methods of public classes that only tests call, kept on purpose; a method
# counts as called when any file outside the tests names its attribute
# outside a function of the same name
TEST_ONLY_METHODS_ALLOWED = {
    ("mmf", "Permutation", "identity"): "the identity permutation the m_count and near tests start from",
    ("mmf", "Permutation", "from_linear"): "the planned affine-class enumerator will call it",
    ("gf2", "Gf2Matrix", "identity"): "the identity matrix the gf2 and EA tests start from",
    ("gf2", "Gf2Matrix", "inverse"): "the EA tests' reference for the inverse of a transform",
    ("gf2", "AffineSubspace", "from_point"): "the one-point flat of the gf2, boolfun and H-solution tests",
    ("gf2", "LinearSubspace", "full"): "the whole space Z2^n of the gf2, boolfun and mmf tests",
}

# the oracle's brute references: the criterion in mmf is what they check,
# so of mmf they may name only the definitional pair and MM truth table
BRUTE_REFERENCES = (
    "near_brute",
    "m_subspaces",
    "_parent_scan",
    "_confirm_parent",
    "_count_mf_intersection",
    "_permutations",
    "verify_sum_pi",
    "verify_sum_phiH",
)
MMF_DEFINITIONS = {"MMFunction", "Permutation", "build_mmf"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _bound_imports(tree: ast.Module) -> dict[str, int]:
    """Names bound by import statements, with their line numbers."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _references(tree: ast.Module) -> set[str]:
    """Every identifier a file mentions other than by defining it."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            refs.add(node.value)
    return refs


def _method_references(tree: ast.Module) -> set[str]:
    """The attribute names and identifier strings a file mentions, leaving
    out an attribute named inside a function of the same name."""
    refs = set()

    def visit(node: ast.AST, enclosing: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing |= {node.name}
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            refs.add(node.value)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return refs


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")):
        if path.name == "__init__.py":
            continue  # its imports are the package's public re-exports
        tree = _tree(path)
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for name, line in _bound_imports(tree).items():
            if name not in loaded and (path.stem, name) not in UNUSED_IMPORT_ALLOWED:
                unused.append(f"{path.name}:{line} {name}")
    assert not unused, f"unused imports: {unused}"


def test_every_top_level_definition_is_referenced():
    files = [p for d in ("src", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    refs = set()
    for path in files:
        refs |= _references(_tree(path))
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name not in refs:
                unreferenced.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unreferenced, f"defined but never referenced: {unreferenced}"


def test_every_public_definition_has_a_caller_outside_the_tests():
    # a public name or public method that only tests call is dead API unless
    # it is listed
    files = [p for p in sorted((ROOT / "src").rglob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "bench").rglob("*.py"))
    refs = set()
    method_refs = set()
    for path in files:
        tree = _tree(path)
        refs |= _references(tree)
        method_refs |= _method_references(tree)
    test_only = set()
    test_only_methods = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _tree(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in refs:
                test_only.add((path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                test_only_methods |= {
                    (path.stem, node.name, m.name)
                    for m in node.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not m.name.startswith("_")
                    and m.name not in method_refs
                }
    for found, allowed in (
        (test_only, TEST_ONLY_API_ALLOWED.keys()),
        (test_only_methods, TEST_ONLY_METHODS_ALLOWED.keys()),
    ):
        assert not found - allowed, f"public but called only from tests: {sorted(found - allowed)}"
        assert not allowed - found, f"allowed but no longer test-only: {sorted(allowed - found)}"


def test_criterion_module_does_not_import_the_scan():
    # the oracle checks mmf against the scan, so mmf must not use it itself
    imported = set()
    for node in ast.walk(_tree(PACKAGE / "mmf.py")):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[-1] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported |= {alias.name for alias in node.names}
    assert not imported & {"kernels", "scan"}, sorted(imported & {"kernels", "scan"})


def test_brute_neighbour_scan_uses_no_criterion_code():
    # the suites check mmf against these scans, so a scan may share gf2 and
    # boolfun primitives with the criterion but no mmf code beyond the
    # definitions of (pi, phi) and of its truth table
    criterion = {
        node.name for node in _tree(PACKAGE / "mmf.py").body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    } - MMF_DEFINITIONS
    bodies = {
        node.name: node for node in _tree(PACKAGE / "oracle.py").body if isinstance(node, ast.FunctionDef)
    }
    assert set(BRUTE_REFERENCES) <= bodies.keys(), sorted(set(BRUTE_REFERENCES) - bodies.keys())
    used = {
        name: sorted({node.id for node in ast.walk(bodies[name]) if isinstance(node, ast.Name)} & criterion)
        for name in BRUTE_REFERENCES
    }
    assert not any(used.values()), {name: names for name, names in used.items() if names}

"""Source hygiene: no unused import in the package or the tests, no
unreferenced definition in the package, no public definition that only
tests call unless it is listed, and the criterion module kept off the
brute-force scan.

The checks read the source with the stdlib ast module.  A name counts as
used when it appears as a name, an attribute, an import or an identifier
string (bench/tracing.py names the functions it wraps by string).
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
    ("gf2", "random_invertible"): "EA-invariance tests; the planned affine-class enumerator will call it",
    ("counting", "sigma2_closed"): "the paper's closed form, checked against sigma(n, 2)",
    ("counting", "sigma3_closed"): "the paper's closed form, checked against sigma(n, 3)",
    ("counting", "near_average_decomposed"): "the paper's closed form, checked against near_average",
    ("counting", "near_average_upper"): "the paper's upper bound, checked above near_average",
    ("counting", "near_mf_ratio_decomposed"): "the paper's closed form, checked against near_mf_ratio",
    ("counting", "beta_lower"): "the paper's lower bound, checked below beta",
    ("counting", "mfc_lower_closed"): "the paper's closed lower bound, checked against mfc_bounds",
}


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
    # a public name that only tests call is dead API unless it is listed
    files = [p for p in sorted((ROOT / "src").rglob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "bench").rglob("*.py"))
    refs = set()
    for path in files:
        refs |= _references(_tree(path))
    test_only = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _tree(path).body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and node.name not in refs
            ):
                test_only.add((path.stem, node.name))
    allowed = TEST_ONLY_API_ALLOWED.keys()
    assert not test_only - allowed, f"public but called only from tests: {sorted(test_only - allowed)}"
    assert not allowed - test_only, f"allowed but no longer test-only: {sorted(allowed - test_only)}"


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
    # the near suites check mmf.near_tables against oracle.near_brute, so the
    # scan may share boolfun primitives with the criterion but no mmf code
    mmf_defs = {
        node.name for node in _tree(PACKAGE / "mmf.py").body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    scan = next(
        node for node in _tree(PACKAGE / "oracle.py").body
        if isinstance(node, ast.FunctionDef) and node.name == "near_brute"
    )
    used = {node.id for node in ast.walk(scan) if isinstance(node, ast.Name)}
    assert not used & mmf_defs, sorted(used & mmf_defs)

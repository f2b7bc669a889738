"""Source hygiene: no unused import in the package or the tests, no
unreferenced definition in the package, and the criterion module kept off
the brute-force scan.

Both checks read the source with the stdlib ast module.  A name counts as
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

"""Which package modules import which: the graph is a layer over the networks, not under them."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pinnrul"


def package_imports(path):
    """Names of the package modules that the module at ``path`` imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):  # from .graph import ..., from pinnrul import graph
            module = "." * node.level + (node.module or "")
            if module.startswith((".", "pinnrul")):
                base = module.lstrip(".").removeprefix("pinnrul").lstrip(".")
                names.update([base] if base else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            names.update(alias.name.removeprefix("pinnrul.") for alias in node.names if alias.name.startswith("pinnrul."))
    return {name.partition(".")[0] for name in names}


def imported_names(path):
    """Names that the module at ``path`` imports with ``from ... import``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_only_model_imports_the_graph():
    # PinnModel._graph is the one client of the graph and of GraphMlp, so Graph.build trusts what it is given
    importers = {path.stem for path in PACKAGE.glob("*.py") if "graph" in package_imports(path)}
    assert importers == {"model"}
    assert {path.stem for path in PACKAGE.glob("*.py") if "GraphMlp" in imported_names(path)} == {"model"}


def test_net_imports_nothing_from_the_graph():
    # the networks' walkers stand alone, so the graph can go without touching net.py
    assert "graph" not in package_imports(PACKAGE / "net.py")
    assert "net" in package_imports(PACKAGE / "graph.py")


def test_every_traced_name_resolves(monkeypatch):
    # the benchmark's tracer wraps each target found as owner.__dict__[attr]; a refactor that
    # drops one fails here, not only in a traced benchmark run
    monkeypatch.syspath_prepend(str(PACKAGE.parents[1] / "perfbench"))
    import tracing

    missing = [(name, attr) for name, owner, attr, _ in tracing.TARGETS if attr not in owner.__dict__]
    assert tracing.TARGETS and not missing

"""The package's public names, and the README's library example."""

import ast
import importlib
import re
from pathlib import Path

import dimsolver
from dimsolver import gen_instance, serialize_graph

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = [
    "ALGORITHMS",
    "ContractViolation",
    "CountResult",
    "Dim",
    "DotTracer",
    "FAMILIES",
    "Graph",
    "GraphFormatError",
    "InstanceTooLargeError",
    "MAX_ORACLE_N",
    "SolveOutcome",
    "SolveStats",
    "brute_solve",
    "count_instance",
    "format_weight",
    "gen_instance",
    "parse_graph",
    "serialize_graph",
    "solve_domset",
    "solve_instance",
    "validate_dim",
]

# engine internals: importable from their modules, not from the package
INTERNAL = {
    "dimsolver.coloring": ["BLACK", "NO_PAIR", "UNCOLORED", "WHITE", "Coloring"],
    "dimsolver.domset": ["classify_parts", "find_dominating_set"],
    "dimsolver.mis": ["count_dims", "solve_mis"],
    "dimsolver.oracle": ["brute_dims", "brute_mis"],
}


def test_public_names_are_pinned():
    assert sorted(dimsolver.__all__) == sorted(PUBLIC + ["__version__"])
    namespace: dict = {}
    exec("from dimsolver import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC + ["__version__"])
    for module, names in INTERNAL.items():
        found = importlib.import_module(module)
        for name in names:
            assert hasattr(found, name), f"{module}.{name}"


def test_readme_library_example_runs_as_written(tmp_path, monkeypatch, capsys):
    text = README.read_text()
    block = re.search(r"^## Library\n.*?^```python\n(.*?)^```", text, re.S | re.M)
    assert block is not None
    code = block.group(1)
    nodes = list(ast.walk(ast.parse(code)))
    assert not [node for node in nodes if isinstance(node, ast.Import)]
    imports = [node for node in nodes if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.module == "dimsolver"
        assert all(alias.name in PUBLIC for alias in node.names)

    # the path 1-2-3-4-5-6 weighs 3, 2, 5, 2, 8: its DIMs are {1-2, 4-5} and {2-3, 5-6}
    g = gen_instance("path", 6, seed=1, weights="uniform:1:9")
    (tmp_path / "instance.dim").write_text(serialize_graph(g))
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.splitlines() == [
        "5.0 [0, 3]",
        "domset 4",
        "CountResult(total=2, min_weight=5.0, min_count=1)",
    ]

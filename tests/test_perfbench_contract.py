"""The benchmark's tracer patches spingap functions by name; keep those names alive."""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_every_shimmed_name_resolves():
    # parsed, not imported: layers.py imports the benchmark's own modules
    tree = ast.parse(LAYERS.read_text())
    shimmed = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "SHIMMED" for t in node.targets))
    pairs = [(module, name) for module, _, names in shimmed for name in names]
    pairs += [(node.module, alias.name) for node in tree.body
              if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("spingap")
              for alias in node.names]
    assert pairs
    missing = [(m, n) for m, n in pairs if not hasattr(importlib.import_module(m), n)]
    assert missing == []

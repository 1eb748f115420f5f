"""The benchmark's span hooks name functions that exist in `bnpg`."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _layers() -> tuple:
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no LAYERS")


def test_every_span_layer_names_a_bnpg_function():
    """A layer whose function is renamed or deleted would drop its span
    from the traced pass without notice; here it fails instead."""
    layers = _layers()
    assert layers
    for module, function, _span in layers:
        assert callable(getattr(importlib.import_module(module), function, None)), (
            f"bench/spans.py hooks {module}.{function}, which does not exist"
        )

"""The benchmark's span and probe hooks name functions that exist in `bnpg`."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# A probe left over from the old ccforest tables, gone from `bnpg` since the
# one ccforest sweep.  It is retired with the probe leftovers under ROADMAP
# open item 1; until then the tracer lists it as missing.
STALE_PROBES = {("bnpg.ccforest", "_feasible_tables")}


def _literal(name: str) -> tuple:
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/spans.py defines no {name}")


def _exists(module: str, function: str) -> bool:
    return callable(getattr(importlib.import_module(module), function, None))


def test_every_span_layer_names_a_bnpg_function():
    """A layer or probe whose function is renamed or deleted would drop its
    span from the traced pass, or its count from `esw.probes`, without
    notice; here it fails instead."""
    layers = _literal("LAYERS")
    assert layers
    for module, function, _span in layers:
        assert _exists(module, function), f"bench/spans.py hooks {module}.{function}, which does not exist"
    probes = _literal("PROBES")
    assert probes
    for module, function in probes:
        if (module, function) in STALE_PROBES:
            assert not _exists(module, function), f"{module}.{function} is back: drop it from STALE_PROBES"
        else:
            assert _exists(module, function), f"bench/spans.py probes {module}.{function}, which does not exist"

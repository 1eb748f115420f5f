"""Spans around bnpg's layer functions, for the traced pass.

`Tracer.install()` wraps each layer function named in `LAYERS` and puts
the wrapper in place of every reference a `bnpg` module holds to it (module
globals and the values of module-level dicts), so a `bnpg.cli.main` call
records one span per layer call, with its parent.  `uninstall()` puts the
originals back.  Spans stay in memory until `dump()`.

A span's self time is its duration minus that of its child layer spans.
Probe spans (`esw.probe`, the feasibility passes of an ESW threshold
search) are recorded inside the ESW solver span but not subtracted from
it: they say how much of the solver's self time the probes take.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (module, function, span name).  A name ending in .psne/.usw/.esw is a
# solver; its report carries `table_entries`.
LAYERS = (
    ("bnpg.instance_io", "parse_instance", "parse"),
    ("bnpg.critical_clique", "build_cc_graph", "cc"),
    ("bnpg.critical_clique", "is_forest", "cc"),
    ("bnpg.critical_clique", "rooted_forest", "cc"),
    ("bnpg.decomposition", "heuristic_decomposition", "td.heuristic"),
    ("bnpg.decomposition", "to_nice", "td.nice"),
    ("bnpg.decomposition", "validate_decomposition", "td.validate"),
    ("bnpg.ccforest", "solve_psne_ccforest", "ccforest.psne"),
    ("bnpg.ccforest", "solve_usw_ccforest", "ccforest.usw"),
    ("bnpg.ccforest", "solve_esw_ccforest", "ccforest.esw"),
    ("bnpg.treewidth", "solve_psne_treewidth", "treewidth.psne"),
    ("bnpg.treewidth", "solve_usw_treewidth", "treewidth.usw"),
    ("bnpg.treewidth", "solve_esw_treewidth", "treewidth.esw"),
    ("bnpg.oracle", "first_psne", "oracle.psne"),
    ("bnpg.oracle", "max_usw", "oracle.usw"),
    ("bnpg.oracle", "max_esw", "oracle.esw"),
)

# One feasibility pass of each DP family; a probe when an ESW solve calls it.
PROBES = (("bnpg.ccforest", "_feasible_tables"), ("bnpg.treewidth", "_sweep"))


def _significant_lines(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#"))


def _profiles(name: str, game, result) -> int:
    """Profiles the oracle visits in ascending bitmask order: all 2^n for
    the welfare questions; for PSNE, up to and including the witness."""
    if name == "oracle.psne" and result is not None:
        return sum(1 << v for v in result.investing) + 1
    return 1 << game.player_count


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._restore: list[tuple] = []
        self._pending: list[tuple] = []
        self.missing: list[str] = []

    # -- spans -------------------------------------------------------------

    def start(self, name: str, layer: bool = True, **attrs) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "layer": layer,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        popped = self._open.pop()
        assert popped is span, "spans must close in order"

    def _layer_wrapper(self, fn, name: str):
        def traced(*args, **kwargs):
            span = self.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            self._count(span, name, args, result)
            return result

        return traced

    def _probe_wrapper(self, fn):
        def traced(*args, **kwargs):
            inside = next((s for s in reversed(self._open) if s["layer"]), None)
            if inside is None or not inside["name"].endswith(".esw"):
                return fn(*args, **kwargs)
            span = self.start("esw.probe", layer=False)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return traced

    def _count(self, span: dict, name: str, args, result) -> None:
        """Counts that cost next to nothing, taken inside the question's
        span; counting the parsed lines waits for `settle()`."""
        if name == "parse" and isinstance(args[0], str):
            self._pending.append((span, args[0]))
        elif name == "cc" and hasattr(result, "cliques"):
            span["cliques"] = len(result.cliques)
        elif name == "td.heuristic":
            span["width"] = result.width()
        elif name == "td.nice":
            span["nodes"] = len(result.bags)
        elif name.startswith("oracle."):
            game = args[0]
            answer = result[0] if isinstance(result, tuple) else result
            span["profiles"] = _profiles(name, game, answer)
        elif hasattr(result, "table_entries"):
            span["entries"] = result.table_entries

    def settle(self) -> None:
        """Count the parsed lines, outside every span."""
        for span, text in self._pending:
            span["lines"] = _significant_lines(text)
        self._pending.clear()

    # -- installing the wrappers -------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, tuple] = {}
        for module_name, attr, name in LAYERS:
            fn = getattr(importlib.import_module(module_name), attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrappers[id(fn)] = (fn, self._layer_wrapper(fn, name))
        for module_name, attr in PROBES:
            fn = getattr(importlib.import_module(module_name), attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrappers[id(fn)] = (fn, self._probe_wrapper(fn))

        def swap(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        for module_name, module in list(sys.modules.items()):
            if module_name != "bnpg" and not module_name.startswith("bnpg."):
                continue
            for key, value in list(vars(module).items()):
                if key.startswith("__"):
                    continue
                wrapper = swap(value)
                if wrapper is not None:
                    self._restore.append((module, key, value))
                    setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        wrapper = swap(v)
                        if wrapper is not None:
                            self._restore.append((value, k, v))
                            value[k] = wrapper

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    # -- reading the spans -------------------------------------------------

    def self_times(self) -> dict[int, float]:
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None and s["layer"]:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"missing_hooks": self.missing, "spans": self.spans}, handle)

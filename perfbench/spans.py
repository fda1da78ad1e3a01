"""Spans around the program's layer boundaries, installed from outside it.

Each target is replaced at the name its caller looks up (the module global
the caller reads), so a call is seen once and the program's source is left
alone. A span records its layer, start, end and parent in flat arrays; a
layer's self time is its spans' durations minus the time of their child
spans. Targets that a refactor removed are reported as absent.
"""

from __future__ import annotations

import importlib
import time
from array import array

# (module, attribute, layer). Layer names are module names; `engine.solve`
# is solve_to_root, whose self time is planning (its merges are children).
TARGETS = (
    ("zerosum.cli", "build_parser", "cli.parse"),
    ("zerosum.cli", "parse_raw_sequence", "cli.parse"),
    ("zerosum.cli", "json.dumps", "cli.render"),
    ("zerosum.cli", "parse_group_spec", "groups.decompose"),
    ("zerosum.cli", "primary_decomposition", "groups.decompose"),
    ("zerosum.cli", "to_primary_coordinates", "groups.encode"),
    ("zerosum.engine", "element_order", "groups.element_order"),
    ("zerosum.groups", "element_order", "groups.element_order"),
    ("zerosum.engine", "add_elements", "groups.add_elements"),
    ("zerosum.cli", "build_lattice", "lattice.build"),
    ("zerosum.engine", "build_lattice", "lattice.build"),
    ("zerosum.cli", "initial_configuration", "engine.init"),
    ("zerosum.cli", "solve_to_root", "engine.solve"),
    ("zerosum.engine", "merge_step", "engine.merge"),
    ("zerosum.engine", "elementary_zero_sum", "base_cases"),
    ("zerosum.cli", "extract_certificate", "engine.certify"),
    ("zerosum.cli", "verify_certificate", "engine.certify"),
    ("zerosum.cli", "dp_min_cost_zero_sum", "oracle.dp"),
)
ROOT_LAYER = "cli.main"

ENGINE_COUNTERS = ("merges", "selected", "consumed", "useful", "fallback", "trivial")


class _ModuleProxy:
    """Stands in for a module global so one of its functions can be wrapped."""

    def __init__(self, module, name, fn):
        self._module = module
        setattr(self, name, fn)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.current = -1
        self.absent: list[str] = []
        self.notes: list[str] = []
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.items = {"base_cases.vectors": 0, "oracle.dp_items": 0}
        self.engine = dict.fromkeys(ENGINE_COUNTERS, 0)

    def _layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    def wrap(self, fn, layer: str, observe=None):
        lid = self._layer_id(layer)

        def wrapper(*args, **kwargs):
            idx = len(self.span_layer)
            parent = self.current
            self.span_layer.append(lid)
            self.span_parent.append(parent)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.current = idx
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                self.span_start[idx] = t0
                self.span_end[idx] = t1
                self.current = parent
                if observe is not None:
                    observe(args, result)

        return wrapper

    def call_root(self, fn, *args):
        return self.wrap(fn, ROOT_LAYER)(*args)

    def install(self) -> None:
        observers = {
            "solve_to_root": self._observe_solve,
            "elementary_zero_sum": self._count_items("base_cases.vectors", 2),
            "dp_min_cost_zero_sum": self._count_items("oracle.dp_items", 1),
        }
        for modname, attr, layer in TARGETS:
            head, _, tail = attr.partition(".")
            try:
                module = importlib.import_module(modname)
                owner_value = getattr(module, head)
                fn = getattr(owner_value, tail) if tail else owner_value
            except (ImportError, AttributeError):
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapped = self.wrap(fn, layer, observers.get(attr))
            new_value = _ModuleProxy(owner_value, tail, wrapped) if tail else wrapped
            setattr(module, head, new_value)

    def _count_items(self, key: str, position: int):
        def observe(args, _result):
            try:
                self.items[key] += len(args[position])
            except (IndexError, TypeError):
                self._note(f"{key}: argument {position} has no length")

        return observe

    def _note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    def _observe_solve(self, args, root) -> None:
        """Counters from the Configuration and root pebble solve_to_root saw.

        Useful merges are those on the root pebble's ancestry: the merge that
        made it, the merges that made its selected inputs, and so on.
        """
        try:
            conf = args[0]
            log = conf.move_log
            e = self.engine
            e["merges"] += len(log)
            e["selected"] += sum(len(m.selected) for m in log)
            e["consumed"] += sum(len(m.consumed) for m in log)
            fallback = getattr(conf, "fallback_fired", None)
            if fallback is None:
                self._note("Configuration.fallback_fired is absent; fallback ops not counted")
            e["fallback"] += bool(fallback)
            if root is None:
                return
            e["trivial"] += not log
            made_by = {m.new_id: m for m in log}
            stack = [root.pid]
            while stack:
                m = made_by.get(stack.pop())
                if m is not None:
                    e["useful"] += 1
                    stack.extend(m.selected)
        except (AttributeError, IndexError, TypeError) as exc:
            self._note(f"engine counters unavailable: {exc!r}")

    def summary(self) -> dict:
        """Per-layer self and inclusive milliseconds, span counts and counters."""
        n = len(self.span_layer)
        child = [0.0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_ms = dict.fromkeys(self.layers, 0.0)
        incl_ms = dict.fromkeys(self.layers, 0.0)
        calls = dict.fromkeys(self.layers, 0)
        for i in range(n):
            name = self.layers[self.span_layer[i]]
            self_ms[name] += (dur[i] - child[i]) * 1000.0
            incl_ms[name] += dur[i] * 1000.0
            calls[name] += 1
        return {
            "self_ms": self_ms,
            "incl_ms": incl_ms,
            "calls": calls,
            "items": dict(self.items),
            "engine": dict(self.engine),
            "absent": list(self.absent),
            "notes": list(self.notes),
        }

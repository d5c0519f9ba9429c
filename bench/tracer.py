"""Per-layer tracing of meangap from outside the program.

``Tracer.install`` replaces every public function of each meangap module
with a timing wrapper wherever a module looks it up: the defining
module's attribute, every module attribute bound to it by ``from ...
import``, and module-level dicts that hold it (the CLI's column table).
``uninstall`` puts the originals back.  Nothing in the package changes.

Each wrapped call is a span with a name (``<layer>.<function>``), a
start, an end and the span that called it; self time is a span's
duration minus its child spans.  Figures are named by layer and role
rather than by function where a role survives a refactor: a solver call
made from the constants layer is the extremum search, any other solver
call is a root search.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("means", "profile", "regimes", "solver", "constants", "reduction", "oracle")

# format_float is the CLI's float serialiser: its time stays in cli.self
NOT_TRACED = {"constants.format_float"}

SAMPLERS = {"oracle.simplex_sample_block", "oracle.simplex_sample"}

# spans kept for the trace file: the first traced operations, in full
MAX_SPANS = 20_000


class Tracer:
    def __init__(self):
        import meangap  # noqa: F401  (loads every layer)

        self.modules = [m for name, m in sorted(sys.modules.items())
                        if name == "meangap" or name.startswith("meangap.")]
        self.originals = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"meangap.{layer}"]
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                key = f"{layer}.{name}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and key not in NOT_TRACED):
                    self.originals[id(fn)] = (fn, self._wrap(layer, key, fn))
        self.patched = []
        self.stack = []
        self.stats = defaultdict(float)
        self.spans = []
        self._next_span = 0
        self._op = 0
        self._op_top = 0.0
        self._op_reduction = 0.0

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        for mod in self.modules:
            for name, value in list(vars(mod).items()):
                if id(value) in self.originals and self.originals[id(value)][0] is value:
                    self.patched.append((mod, name, value, True))
                    setattr(mod, name, self.originals[id(value)][1])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in self.originals and self.originals[id(v)][0] is v:
                            self.patched.append((value, k, v, False))
                            value[k] = self.originals[id(v)][1]

    def uninstall(self) -> None:
        for holder, name, original, is_module in reversed(self.patched):
            if is_module:
                setattr(holder, name, original)
            else:
                holder[name] = original
        self.patched = []

    # -- spans ------------------------------------------------------------

    def _wrap(self, layer, key, fn):
        tracer = self
        solver = layer == "solver"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if solver:
                args, kwargs = tracer._count_objective(args, kwargs)
            frame = tracer._enter(key, layer, fn, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if solver:
                role = frame[5]
                tracer.stats[f"solver.{role}.calls"] += 1
                tracer.stats[f"solver.{role}.iterations"] += getattr(result, "iterations", 0)
            return result

        return wrapper

    def _count_objective(self, args, kwargs):
        in_cert = any(f[0] == "constants.best_constants" for f in self.stack)
        stats = self.stats

        def wrap(objective):
            def counted(x):
                stats["solver.objective_evals"] += 1
                if in_cert:
                    stats["solver.objective_evals_in_cert"] += 1
                return objective(x)

            return counted

        if "objective" in kwargs:
            kwargs = dict(kwargs, objective=wrap(kwargs["objective"]))
        elif args:
            args = (wrap(args[0]),) + tuple(args[1:])
        return args, kwargs

    def _enter(self, key, layer, fn, args, kwargs):
        stats = self.stats
        parent = self.stack[-1] if self.stack else None
        parent_layer = parent[1] if parent else "cli"
        role = "extremum" if parent_layer == "constants" else "root"
        if layer == "profile" and parent_layer != "profile" and args:
            points = int(np.size(args[0]))
            kind = "scalar" if np.ndim(args[0]) == 0 else "vector"
            stats[f"profile.{kind}.calls"] += 1
            stats[f"profile.{kind}.points"] += points
            role = kind
            if key == "profile.W_func" and any(f[0] == "regimes.locate_mu" for f in self.stack):
                stats["regimes.locate_mu.W_points"] += points
        elif key == "oracle.simplex_sample_block":
            bound = inspect.signature(fn).bind(*args, **kwargs)
            stats["oracle.sampler.coords"] += bound.arguments["n"] * bound.arguments["count"]
        elif key == "means.ratio_gap" and parent_layer == "oracle":
            stats["oracle.probes.count"] += 1
            role = "probe"
        self._next_span += 1
        frame = [key, layer, time.perf_counter(), 0.0, self._next_span, role,
                 parent[4] if parent else 0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        key, layer, start, child, span_id, role, parent_id = frame
        dur = end - start
        self.stack.pop()
        parent = self.stack[-1] if self.stack else None
        stats = self.stats
        if parent:
            parent[3] += dur
        else:
            self._op_top += dur
        stats[f"{key}.calls"] += 1
        stats[f"{key}.time"] += dur
        stats[f"{key}.self"] += dur - child
        stats[f"{layer}.self"] += dur - child
        if layer == "profile" and role in ("scalar", "vector"):
            stats[f"profile.{role}.time"] += dur
        if key in SAMPLERS and not (parent and parent[0] in SAMPLERS):
            stats["oracle.sampler.time"] += dur
        if role == "probe":
            stats["oracle.probes.time"] += dur
        if layer == "reduction" and not (parent and parent[1] == "reduction"):
            self._op_reduction += dur
        if len(self.spans) < MAX_SPANS:
            self.spans.append([self._op, span_id, parent_id, key, start, end])

    # -- operations ------------------------------------------------------

    def begin_op(self) -> None:
        self._op_top = 0.0
        self._op_reduction = 0.0

    def end_op(self, wall: float, args: list, out: str) -> None:
        stats = self.stats
        stats["ops"] += 1
        stats["cli.self"] += wall - self._op_top
        stats["cli.output_bytes"] += len(out)
        if args[0] == "reduce3" and out:
            stats["reduction.rows"] += len(json.loads(out)["payload"]["rows"])
            stats["reduction.row_time"] += self._op_reduction
        self._op += 1

    # -- figures ---------------------------------------------------------

    def metrics(self) -> dict:
        s = self.stats
        ops = s["ops"] or 1.0

        def per(num, den, scale):
            return s[num] / s[den] * scale if s[den] else 0.0

        certs = s["constants.best_constants.calls"]
        return {
            "cli.self_ms_per_op": (s["cli.self"] / ops * 1e3, "ms"),
            "cli.output_kb_per_op": (s["cli.output_bytes"] / ops / 1024, "KiB"),
            "constants.best_constants.ms_per_call": (
                per("constants.best_constants.time", "constants.best_constants.calls", 1e3), "ms"),
            "constants.best_constants.calls_per_op": (certs / ops, "count"),
            "constants.self_ms_per_op": (s["constants.self"] / ops * 1e3, "ms"),
            "profile.scalar_calls_per_op": (s["profile.scalar.calls"] / ops, "count"),
            "profile.scalar_us_per_call": (
                per("profile.scalar.time", "profile.scalar.calls", 1e6), "us"),
            "profile.vector_points_per_op": (s["profile.vector.points"] / ops, "count"),
            "profile.vector_ns_per_point": (
                per("profile.vector.time", "profile.vector.points", 1e9), "ns"),
            "regimes.locate_mu.ms_per_call": (
                per("regimes.locate_mu.time", "regimes.locate_mu.calls", 1e3), "ms"),
            "regimes.locate_mu.W_evals_per_call": (
                per("regimes.locate_mu.W_points", "regimes.locate_mu.calls", 1), "count"),
            "solver.objective_evals_per_cert": (
                s["solver.objective_evals_in_cert"] / certs if certs else 0.0, "count"),
            "solver.root.iterations_per_call": (
                per("solver.root.iterations", "solver.root.calls", 1), "count"),
            "solver.extremum.iterations_per_call": (
                per("solver.extremum.iterations", "solver.extremum.calls", 1), "count"),
            "solver.self_ms_per_op": (s["solver.self"] / ops * 1e3, "ms"),
            "oracle.grid_scan.ms_per_call": (
                per("oracle.grid_scan_two_value.time", "oracle.grid_scan_two_value.calls", 1e3),
                "ms"),
            "oracle.sampler.ms_per_op": (s["oracle.sampler.time"] / ops * 1e3, "ms"),
            "oracle.sampler.ns_per_coord": (
                per("oracle.sampler.time", "oracle.sampler.coords", 1e9), "ns"),
            "oracle.mc.self_ms_per_op": (
                s["oracle.monte_carlo_extremes.self"] / ops * 1e3, "ms"),
            "oracle.probes.ms_per_op": (s["oracle.probes.time"] / ops * 1e3, "ms"),
            "oracle.probes.count_per_op": (s["oracle.probes.count"] / ops, "count"),
            "oracle.check_bounds.ms_per_call": (
                per("oracle.check_bounds.time", "oracle.check_bounds.calls", 1e3), "ms"),
            "means.ratio_gap.us_per_call": (
                per("means.ratio_gap.time", "means.ratio_gap.calls", 1e6), "us"),
            "reduction.us_per_row": (per("reduction.row_time", "reduction.rows", 1e6), "us"),
            "reduction.self_ms_per_op": (s["reduction.self"] / ops * 1e3, "ms"),
        }

"""Spans around calls into each pawclock layer, recorded from outside the program.

``Tracer.install()`` wraps every public function of the six layer modules,
and every public method of the classes they define, then rebinds the wrapper
wherever the original is bound inside the package: the defining module, the
package namespace, and the copies importing modules bind (for example
``pawclock.cli.marginal_space_time`` or ``pawclock.classical.sphere_quadrature``).
``uninstall()`` puts the originals back, so traced and untraced passes can
alternate in one process.

A span is (name, layer, start, end, parent, op id, extra).  Spans stay in
memory; ``dump`` writes them out at the end.  tracemalloc runs only inside
the spans named in PEAK_SPANS and measures the allocation peak there; it is
never on in an untraced pass.

Run as a script, this module is a traced ``pawclock`` command line:

    python3 bench/tracer.py SPANS_OUT OP_ID figure marg-pq --out DIR

runs ``pawclock.cli.main`` on the remaining arguments with every layer
traced and writes the spans to SPANS_OUT as JSON.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
import tracemalloc

LAYERS = ("constraints", "coherent", "pawstate", "classical", "marginals", "cli")

# Layers whose span count is a metric; the others report counts of their
# own kind of work (conditional states, orbit points, branch pairs).
COUNTED_LAYERS = ("constraints", "coherent", "cli")

PEAK_SPANS = {"classical.beta_double_integral", "marginals.marginal_space_time"}


def _space_time_counts(args: tuple, result) -> dict:
    branches = len(args[0].support)
    return {"branch_pairs": branches * (branches - 1) // 2,
            "grid_cells": int(result[0].values.size)}


# Work counts read off a call's arguments and result, per span name.
COUNTERS = {
    "classical.orbit_family": lambda args, result: {"orbit_points": len(result)},
    "marginals.marginal_space_time": _space_time_counts,
    "marginals.marginal_phase_space": lambda args, result: {"grid_cells": result.values.size},
    "marginals.marginal_energy_time": lambda args, result: {"grid_cells": result.values.size},
}


class Tracer:
    """Collects spans from wrapped pawclock calls; one tracer per process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id: str | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        peak = name in PEAK_SPANS
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            record = [name, layer, 0.0, 0.0, stack[-1] if stack else None,
                      self.op_id, None]
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            stack.append(index)
            if peak:
                tracemalloc.start()
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
                if peak:
                    peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            extra = counter(args, result) if counter else {}
            if peak:
                extra["peak_bytes"] = peak_bytes
            if extra:
                record[6] = extra
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public layer function and rebind it across the package."""
        if self._patches:
            return
        package = importlib.import_module("pawclock")
        modules = {layer: importlib.import_module(f"pawclock.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer, f"{layer}.{attr}"))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for method, fn in list(vars(obj).items()):
                        if not method.startswith("_") and inspect.isfunction(fn):
                            wrapped = self._wrap(fn, layer, f"{layer}.{attr}.{method}")
                            self._patches.append((obj, method, fn))
                            setattr(obj, method, wrapped)
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def take(self) -> list[list]:
        """Return and forget the spans recorded so far."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def layer_totals(spans: list[list]) -> dict:
    """Layer metrics of one batch of spans (one op); run.py adds them up per pass.

    Self time is a span's duration minus that of its direct children.
    Inclusive stage times count only outermost spans of the stage, so nested
    calls inside a stage (assemble_state -> build_state) are not counted twice.
    """
    durations = [end - start for _, _, start, end, _, _, _ in spans]
    child_time = [0.0] * len(spans)
    for index, span in enumerate(spans):
        if span[4] is not None:
            child_time[span[4]] += durations[index]
    names = [span[0] for span in spans]

    def inclusive(stage: set[str]) -> float:
        total = 0.0
        for index, span in enumerate(spans):
            parent = span[4]
            if span[0] in stage and (parent is None or names[parent] not in stage):
                total += durations[index]
        return total

    def count(name: str) -> int:
        return sum(1 for n in names if n == name)

    def extra(key: str) -> list:
        return [span[6][key] for span in spans if span[6] and key in span[6]]

    def peak_mb(name: str) -> float:
        return max((span[6]["peak_bytes"] / 2 ** 20 for span in spans
                    if span[0] == name and span[6]), default=0.0)

    out = {}
    for layer in LAYERS:
        if layer in COUNTED_LAYERS:
            out[f"{layer}.calls"] = sum(1 for span in spans if span[1] == layer)
        out[f"{layer}.self_s"] = sum(durations[i] - child_time[i]
                                     for i, span in enumerate(spans) if span[1] == layer)
    out["coherent.sphere_quadrature_calls"] = count("coherent.sphere_quadrature")
    out["coherent.sphere_quadrature_s"] = inclusive({"coherent.sphere_quadrature"})
    out["pawstate.build_s"] = inclusive({
        "pawstate.build_state", "pawstate.assemble_state", "pawstate.state_from_dict",
        "pawstate.spin3_pair_state", "pawstate.balanced_two_level_state",
        "pawstate.dense_family_state", "pawstate.large_j_pair_state"})
    out["pawstate.chi2_s"] = inclusive({
        "pawstate.log_chi_squared", "pawstate.chi_squared",
        "pawstate.chi_squared_terms", "pawstate.chi_squared_integral"})
    out["pawstate.conditional_calls"] = count("pawstate.conditional_state")
    out["pawstate.schrodinger_s"] = inclusive({
        "pawstate.schrodinger_order_study", "pawstate.schrodinger_residual"})
    out["classical.beta_integral_s"] = inclusive({"classical.beta_double_integral"})
    out["classical.beta_integral_peak_mb"] = peak_mb("classical.beta_double_integral")
    out["classical.orbit_family_s"] = inclusive({"classical.orbit_family"})
    out["classical.orbit_points"] = sum(extra("orbit_points"))
    out["classical.orbit_write_s"] = inclusive({"classical.write_orbit_csv"})
    out["marginals.space_time_s"] = inclusive({"marginals.marginal_space_time"})
    out["marginals.space_time_peak_mb"] = peak_mb("marginals.marginal_space_time")
    out["marginals.branch_pairs"] = sum(extra("branch_pairs"))
    out["marginals.phase_space_s"] = inclusive({"marginals.marginal_phase_space"})
    out["marginals.energy_time_s"] = inclusive({"marginals.marginal_energy_time"})
    out["marginals.grid_cells"] = sum(extra("grid_cells"))
    out["marginals.write_csv_s"] = inclusive({"marginals.DistributionGrid.write_csv"})
    return out


SPAN_KEYS = ("name", "layer", "start", "end", "parent", "op", "extra")


def dump(spans: list[list], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([dict(zip(SPAN_KEYS, span)) for span in spans], handle)


def load_spans(path) -> list[list]:
    with open(path, encoding="utf-8") as handle:
        return [[span[key] for key in SPAN_KEYS] for span in json.load(handle)]


def _traced_cli(out_path: str, op_id: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    tracer.op_id = op_id
    try:
        return sys.modules["pawclock.cli"].main(argv)
    finally:
        dump(tracer.take(), out_path)


if __name__ == "__main__":
    raise SystemExit(_traced_cli(sys.argv[1], sys.argv[2], sys.argv[3:]))

"""In-memory span tracer that wraps qlinksim's layer functions from outside.

`install` rebinds each traced function in every qlinksim module namespace
that holds it: `from .qspace import partial_trace` in `metrics` is a binding
of its own, and a call through it would escape a wrapper installed only in
`qspace`. It mutates the package for the life of the process, so it belongs in
a process of its own. Per-step callables (a schedule's `g_a_at`/`g_b_at`, the
right-hand side inside `evolve`, `qspace.dagger`) are never wrapped: a span per
RK4 stage would cost more than the step it measures.

Spans stay in memory; `Tracer.dump` writes them out once the pass is over.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional

# layer (module of qlinksim) -> functions traced in it
TRACED = {
    "qspace": ("partial_trace", "von_neumann_entropy", "product_state",
               "check_density_matrix", "embed"),
    "protocols": ("stirap_grid_search",),
    "dynamics": ("evolve", "standard_collapse", "hamiltonian_terms", "default_dt"),
    "metrics": ("run_channel_probe", "coherent_information", "entanglement_fidelity",
                "average_fidelity"),
    "network": ("run_hop", "run_chain", "distance_sweep"),
    "cli": ("run_scenario",),
}

DYNAMICS_SETUP = ("dynamics.standard_collapse", "dynamics.hamiltonian_terms",
                  "dynamics.default_dt")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None  # index of the enclosing span in Tracer.spans
    run: str = ""
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans for one benchmark pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, annotate: Optional[Callable] = None) -> Callable:
        """Wrap fn so each call records a span; annotate(arguments, result) adds attrs."""
        signature = inspect.signature(fn) if annotate is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(),
                        parent=self._open[-1] if self._open else None, run=self.run_id)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span.attrs["error"] = type(err).__name__
                raise
            finally:
                self._open.pop()
                span.end = time.perf_counter()
            if annotate is not None:
                span.attrs.update(annotate(signature.bind(*args, **kwargs).arguments, result))
            return result

        return traced

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def install(tracer: Tracer) -> None:
    """Rebind every traced qlinksim function, in every namespace, to its wrapper."""
    import qlinksim.cli  # noqa: F401  (loads every layer module)
    from qlinksim.protocols import ConstantSchedule

    modules = [m for name, m in sys.modules.items()
               if name == "qlinksim" or name.startswith("qlinksim.")]

    def evolve_attrs(arguments, traj):
        t0, t1 = arguments["t_span"]
        return {
            "kind": "constant" if isinstance(arguments["schedule"], ConstantSchedule) else "pulsed",
            # evolve's own rule for the number of steps
            "steps": max(1, int(round((float(t1) - float(t0)) / arguments["dt"]))),
            "samples": len(traj.times),
        }

    annotators = {
        "dynamics.evolve": evolve_attrs,
        "cli.run_scenario": lambda arguments, _: {"scenario": arguments["cfg"].scenario},
        "protocols.stirap_grid_search": lambda _, records: {"points": len(records)},
    }
    replacements = {}
    for layer, names in TRACED.items():
        module = sys.modules[f"qlinksim.{layer}"]
        for name in names:
            original = getattr(module, name)
            span_name = f"{layer}.{name}"
            replacements[id(original)] = (
                original, tracer.wrap(span_name, original, annotators.get(span_name)))

    for module in modules:
        for attr, value in list(vars(module).items()):
            entry = replacements.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
    for module in modules:
        for attr, value in vars(module).items():
            entry = replacements.get(id(value))
            if entry is not None and entry[0] is value:
                raise RuntimeError(f"{module.__name__}.{attr} is still untraced")


def layer_metrics(spans: list[Span], scenarios) -> dict[str, float]:
    """Per-layer figures of one pass, derived from its spans.

    Self time is a span's duration minus that of its direct children; the
    pass is single-threaded, so children never overlap.
    """
    duration = [s.end - s.start for s in spans]
    self_time = list(duration)
    for i, s in enumerate(spans):
        if s.parent is not None:
            self_time[s.parent] -= duration[i]

    def pick(name, key=None):
        return [i for i, s in enumerate(spans) if s.name == name and (key is None or key(s))]

    def total(times, name, key=None):
        return float(sum(times[i] for i in pick(name, key)))

    def under(i, ancestor):
        parent = spans[i].parent
        while parent is not None:
            if spans[parent].name == ancestor:
                return True
            parent = spans[parent].parent
        return False

    out: dict[str, float] = {}
    for scenario in scenarios:
        out[f"cli.scenario_s.{scenario}"] = total(
            duration, "cli.run_scenario", lambda s, sc=scenario: s.attrs.get("scenario") == sc)
    out["cli.self_s"] = total(self_time, "cli.run_scenario")

    evolves = pick("dynamics.evolve")
    out["dynamics.evolve.calls"] = len(evolves)
    out["dynamics.steps"] = sum(spans[i].attrs.get("steps", 0) for i in evolves)
    out["dynamics.samples"] = sum(spans[i].attrs.get("samples", 0) for i in evolves)
    for kind in ("constant", "pulsed"):
        own = [i for i in evolves if spans[i].attrs.get("kind") == kind]
        busy = float(sum(self_time[i] for i in own))
        steps = sum(spans[i].attrs["steps"] for i in own)
        out[f"dynamics.{kind}.self_s"] = busy
        out[f"dynamics.{kind}.us_per_step"] = 1e6 * busy / steps if steps else 0.0
    out["dynamics.setup_s"] = sum(total(duration, name) for name in DYNAMICS_SETUP)

    out["metrics.average_fidelity.s"] = total(duration, "metrics.average_fidelity")
    out["metrics.average_fidelity.evolve_calls"] = sum(
        1 for i in evolves if under(i, "metrics.average_fidelity"))
    out["metrics.run_channel_probe.s"] = total(duration, "metrics.run_channel_probe")
    out["metrics.coherent_information.self_s"] = total(self_time, "metrics.coherent_information")
    out["metrics.entanglement_fidelity.self_s"] = total(self_time, "metrics.entanglement_fidelity")

    out["network.run_chain.s"] = total(duration, "network.run_chain")
    out["network.distance_sweep.s"] = total(duration, "network.distance_sweep")
    out["network.run_hop.calls"] = len(pick("network.run_hop"))
    out["network.run_hop.self_s"] = total(self_time, "network.run_hop")

    out["protocols.stirap_grid_search.s"] = total(duration, "protocols.stirap_grid_search")
    out["protocols.grid_points"] = sum(
        spans[i].attrs.get("points", 0) for i in pick("protocols.stirap_grid_search"))

    for name in TRACED["qspace"]:
        out[f"qspace.{name}.calls"] = len(pick(f"qspace.{name}"))
        out[f"qspace.{name}.self_s"] = total(self_time, f"qspace.{name}")
    return out

"""In-memory span tracer for the poppersim layers, installed from outside.

``Tracer.install`` replaces each public function of the given modules by a
wrapper that records one span per call: name, start, end, parent span and
op id, plus the bytes of a returned 2-D state (``result.psi.nbytes``).
Callers inside the package look functions up as module attributes
(``go.evolve_spectral``, ``ex.run_kim_shih``), so the wrappers see every
call between layers without a line added to ``src/``.

``layer_metrics`` turns a span list into the per-layer metrics, per op.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

# grid_oracle stages that get their own call count and time
ORACLE_STAGES = ("build_grid_state", "evolve_spectral", "condition",
                 "propagate_amplitude", "marginal_intensity", "intensity_widths")

# span fields, in the order they are stored and dumped
FIELDS = ("name", "start", "end", "parent", "op", "bytes")


class Tracer:
    """Wraps module functions and keeps their spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def install(self, modules) -> None:
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                self._originals.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(f"{layer}.{attr}", fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            psi = getattr(result, "psi", None)
            if psi is not None:
                span[5] = psi.nbytes
            return result

        return traced


def layer_modules():
    """The poppersim modules whose public functions are traced."""
    from poppersim import cli, experiments, gaussian_core, grid_oracle
    return [cli, experiments, grid_oracle, gaussian_core]


def dump_spans(path, spans: list[list]) -> None:
    with open(path, "w") as fh:
        json.dump({"fields": FIELDS, "spans": spans}, fh)


def load_spans(path) -> list[list]:
    with open(path) as fh:
        return json.load(fh)["spans"]


def append_spans(spans: list[list], more: list[list]) -> None:
    """Append another process's spans, renumbering their parent indexes."""
    offset = len(spans)
    spans.extend([*s[:3], s[3] + offset if s[3] >= 0 else -1, *s[4:]]
                 for s in more)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[list], ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, averaged over ``ops``, as {name: (value, unit)}.

    Parent indexes in ``spans`` refer to the list itself.  A layer's self
    time is the time inside its spans that no child span covers.
    """
    calls = {stage: 0 for stage in ORACLE_STAGES}
    seconds = {stage: 0.0 for stage in ORACLE_STAGES}
    self_s = {"experiments": 0.0, "cli": 0.0}
    state_bytes = gc_calls = 0
    runner_s = gc_s = cli_main_s = 0.0
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    for i, (name, start, end, parent, _op, nbytes) in enumerate(spans):
        layer, dur = _layer(name), end - start
        outer = parent < 0 or _layer(spans[parent][0]) != layer
        if layer in self_s:
            self_s[layer] += own[i]
        if layer == "grid_oracle":
            stage = name.split(".", 1)[1]
            if stage in calls:
                calls[stage] += 1
                seconds[stage] += dur
            state_bytes += nbytes
        elif layer == "gaussian_core":
            gc_calls += 1
            if outer:
                gc_s += dur
        elif name.startswith("experiments.run_") and outer:
            runner_s += dur
        elif name == "cli.main" and outer:
            cli_main_s += dur

    out: dict[str, tuple[float, str]] = {}
    for stage in ORACLE_STAGES:
        out[f"grid_oracle.{stage}.calls"] = (calls[stage] / ops, "count")
        out[f"grid_oracle.{stage}.s"] = (seconds[stage] / ops, "s")
    out["grid_oracle.state_mb"] = (state_bytes / 1e6 / ops, "MB")
    builds = calls["build_grid_state"]
    out["grid_oracle.apertures_per_build"] = (
        calls["condition"] / builds if builds else 0.0, "ratio")
    out["experiments.runner.s"] = (runner_s / ops, "s")
    out["experiments.self_s"] = (self_s["experiments"] / ops, "s")
    out["gaussian_core.calls"] = (gc_calls / ops, "count")
    out["gaussian_core.s"] = (gc_s / ops, "s")
    out["cli.main.s"] = (cli_main_s / ops, "s")
    out["cli.self_s"] = (self_s["cli"] / ops, "s")
    return out

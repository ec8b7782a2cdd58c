"""Span tracer installed around lsdiv's public functions from outside the package.

Every public function defined in one of the layer modules is replaced, at
every module attribute that refers to it, by a wrapper that records a span
(name, start, end, parent span, request id).  ``from .x import f`` copies the
reference into the importing module, so each import site is patched
separately.  ``PoissonFamily.log_density`` is only counted, not spanned: it
runs a few hundred times per fit and a span there would dominate the trace.
Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

from timing import percentile

LAYERS = ("simulate", "estimation", "families", "divergence", "hypotest", "asymptotics", "cli")
PATCH_MODULES = ("lsdiv",) + tuple(f"lsdiv.{m}" for m in LAYERS)

# Per-layer metrics, in the order BENCHMARK.json lists them.
SPAN_METRICS = (
    "estimation.minimize_lsd",
    "families.support_window",
    "families.density_vector",
    "simulate.contaminated_sample",
    "simulate.sample_poisson",
    "hypotest.divergence_between_fits",
    "divergence.lsd",
    "hypotest.null_law",
    "hypotest.curvature_a_beta",
    "asymptotics.model_jkxi",
    "asymptotics.if_first_order",
    "asymptotics.if_second_order",
    "asymptotics.bias_curves",
)
PER_LAYER = (
    [f"{name}.{stat}" for name in SPAN_METRICS for stat in ("calls", "self_s")]
    + [
        "estimation.minimize_lsd.p50_ms",
        "estimation.minimize_lsd.p99_ms",
        "estimation.minimize_lsd.wall_share",
        "estimation.evals_per_fit",
        "estimation.nonconverged_ratio",
        "families.window_len.mean",
        "simulate.emit_report.self_s",
        "cli.simulate.self_s",
        "simulate.pool_speedup",
        "trace_overhead_ratio",
    ]
)


class Tracer:
    """Spans and counts for one traced run; ``install`` patches lsdiv,
    ``uninstall`` restores every patched attribute."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.request_id: int | None = None
        self.log_density_calls = 0
        self.log_density_points = 0
        self.log_density_in_fit = 0
        self.fits = 0
        self.nonconverged = 0
        self._stack: list[int] = []
        self._in_fit = 0
        self._patches: list[tuple[object, str, object]] = []

    def requesting(self, fn):
        """``fn`` as a request of its own: the spans it causes share one id."""

        def request():
            self.request_id = 0 if self.request_id is None else self.request_id + 1
            return fn()

        return request

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        import lsdiv  # noqa: F401  (loads every layer module)
        from lsdiv.cli import main as cli_main
        from lsdiv.families import PoissonFamily

        for layer in LAYERS:
            module = sys.modules[f"lsdiv.{layer}"]
            for attr, obj in list(vars(module).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    self._patch_everywhere(obj, self._spanned(f"{layer}.{attr}", obj))
        for name, command in cli_main.commands.items():
            self._set(command, "callback", self._spanned(f"cli.{name}", command.callback))
        self._set(
            PoissonFamily,
            "support_window",
            self._spanned("families.support_window", PoissonFamily.support_window),
        )
        self._set(PoissonFamily, "log_density", self._counted_log_density(PoissonFamily.log_density))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper) -> None:
        for module_name in PATCH_MODULES:
            module = sys.modules[module_name]
            for attr, obj in list(vars(module).items()):
                if obj is original:
                    self._set(module, attr, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name: str, fn):
        is_fit = name == "estimation.minimize_lsd"
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append(None)
            stack.append(index)
            self._in_fit += is_fit
            converged = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                converged = is_fit and result.converged
                return result
            finally:
                end = time.perf_counter()
                self._in_fit -= is_fit
                stack.pop()
                spans[index] = (name, start, end, parent, self.request_id)
                if is_fit:
                    # a fit that raised counts as not converged
                    self.fits += 1
                    self.nonconverged += not converged

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted_log_density(self, fn):
        def log_density(family, theta, x):
            self.log_density_calls += 1
            self.log_density_points += len(x)
            self.log_density_in_fit += self._in_fit > 0
            return fn(family, theta, x)

        log_density.__wrapped__ = fn
        return log_density

    # -- reading ----------------------------------------------------------

    def per_name(self) -> dict[str, dict]:
        """calls, total and self seconds and durations for each span name."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] is not None:
                child_time[span[3]] += span[2] - span[1]
        stats: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
        )
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            duration = span[2] - span[1]
            entry = stats[span[0]]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[index]
            entry["durations"].append(duration)
        return stats

    def metrics(self, traced_wall_s: float) -> dict[str, float]:
        """Per-layer metrics measured by this tracer (pool speed-up and
        tracing overhead are added by the caller)."""
        stats = self.per_name()
        out: dict[str, float] = {}
        for name in SPAN_METRICS:
            entry = stats.get(name)
            out[f"{name}.calls"] = entry["calls"] if entry else 0
            out[f"{name}.self_s"] = entry["self_s"] if entry else 0.0
        fit = stats.get("estimation.minimize_lsd")
        durations = fit["durations"] if fit else []
        out["estimation.minimize_lsd.p50_ms"] = 1e3 * percentile(durations, 50) if durations else 0.0
        out["estimation.minimize_lsd.p99_ms"] = 1e3 * percentile(durations, 99) if durations else 0.0
        out["estimation.minimize_lsd.wall_share"] = (fit["total_s"] if fit else 0.0) / traced_wall_s
        out["estimation.evals_per_fit"] = self.log_density_in_fit / self.fits if self.fits else 0.0
        out["estimation.nonconverged_ratio"] = self.nonconverged / self.fits if self.fits else 0.0
        out["families.window_len.mean"] = (
            self.log_density_points / self.log_density_calls if self.log_density_calls else 0.0
        )
        for name in ("simulate.emit_report", "cli.simulate"):
            entry = stats.get(name)
            out[f"{name}.self_s"] = entry["self_s"] if entry else 0.0
        return out

    def write(self, path, extra: dict) -> None:
        """Spans as [name, start, end, parent, request id] rows, plus counts."""
        stats = self.per_name()
        payload = {
            **extra,
            "counts": {
                "log_density_calls": self.log_density_calls,
                "log_density_points": self.log_density_points,
                "log_density_in_fit": self.log_density_in_fit,
                "fits": self.fits,
                "nonconverged_fits": self.nonconverged,
                "spans_by_name": {
                    name: {"calls": e["calls"], "total_s": e["total_s"], "self_s": e["self_s"]}
                    for name, e in sorted(stats.items())
                },
            },
            "span_fields": ["name", "start", "end", "parent", "request_id"],
            "spans": [list(span) for span in self.spans if span is not None],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

"""Spans and counts taken at ppdiv's module boundaries, from outside.

A layer is timed by replacing the module attribute its callers resolve at
call time (``harness.phd_update`` and ``control.phd_update`` are separate
attributes, so the filter update and the look-ahead update are timed
separately).  Nothing inside ppdiv changes.  Spans (name, start, end,
parent) stay in memory until the run ends.

Counting work at a boundary (``np.unique`` over covariance rows, say) costs
time of its own.  That time is taken off the tracer's clock, so it shows in
the traced run's total wall time but in no span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from collections import defaultdict

import numpy as np


@contextlib.contextmanager
def patched(owner, name, make_wrapper):
    """Replace ``owner.name`` by ``make_wrapper(original)`` inside the block."""
    original = getattr(owner, name)
    setattr(owner, name, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


class Tracer:
    """Span recorder: each span is [name, start, end, parent_index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.sizes: defaultdict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._paused = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._paused

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, self.now(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = self.now()
            self._stack.pop()

    def wrapper(self, name: str, count=None):
        """Factory for ``patched``: time each call as span ``name`` and, after
        it returns, let ``count(tracer, args, kwargs, result)`` add counts."""

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                with self.span(name):
                    result = fn(*args, **kwargs)
                if count is not None:
                    started = time.perf_counter()
                    count(self, args, kwargs, result)
                    self._paused += time.perf_counter() - started
                return result

            return traced

        return make


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for index, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def span_table(spans) -> dict:
    """Calls, inclusive and self time per span name."""
    table: dict[str, dict] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        row = table.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["inclusive_s"] += end - start
        row["self_s"] += own
    return table


# ---------------------------------------------------------------------------
# counts taken at the boundaries


def _distinct_rows(covs) -> int:
    covs = np.asarray(covs)
    if covs.shape[0] == 0:
        return 0
    return int(np.unique(covs.reshape(covs.shape[0], -1), axis=0).shape[0])


def _count_pairwise(tracer, args, kwargs, result):
    means_a, covs_a, means_b, covs_b = args
    tracer.counts["pairwise.pairs"] += means_a.shape[0] * means_b.shape[0]
    tracer.counts["pairwise.rows"] += covs_a.shape[0] + covs_b.shape[0]
    tracer.counts["pairwise.distinct_rows"] += _distinct_rows(covs_a) + _distinct_rows(covs_b)


def _count_lookahead(tracer, args, kwargs, result):
    tracer.counts["lookahead.components"] += len(result)
    tracer.counts["lookahead.zero_weight"] += int(np.count_nonzero(result.weights == 0.0))
    tracer.sizes["lookahead posterior components"].append(len(result))


def _count_predict(tracer, args, kwargs, result):
    tracer.counts["predict.components"] += len(result)
    tracer.sizes["n_pred"].append(len(result))


def _count_prune(tracer, args, kwargs, result):
    tracer.counts["prune.in"] += len(args[0])
    tracer.counts["prune.out"] += len(result)
    tracer.sizes["prune_merge in"].append(len(args[0]))
    tracer.sizes["prune_merge out"].append(len(result))


def _count_measurements(tracer, args, kwargs, result):
    tracer.counts["measurements"] += len(result)


def _count_log_eval(tracer, args, kwargs, result):
    mixture, points = args[0], np.atleast_2d(args[1])
    active = int(np.count_nonzero(mixture.weights > 0.0))
    tracer.counts["log_eval.point_components"] += points.shape[0] * active


def _count_mc(tracer, args, kwargs, result):
    n = kwargs["n"] if "n" in kwargs else args[3]
    tracer.counts["mc.samples"] += 3 * n


def _count_candidate(tracer, args, kwargs, result):
    tracer.counts["candidates"] += 1


# (module, attribute, counter) for every boundary the benchmark times; the
# span name is "<module>.<attribute>", the attribute the caller resolves.
BOUNDARIES = (
    ("harness", "run_simulation", None),
    ("harness", "select_action", None),
    ("harness", "_evaluate_candidate", _count_candidate),
    ("harness", "mixture_inner", None),
    ("harness", "phd_predict", _count_predict),
    ("harness", "phd_update", None),
    ("harness", "prune_merge", _count_prune),
    ("harness", "generate_measurements", _count_measurements),
    ("harness", "ospa", None),
    ("harness", "write_run_csv", None),
    ("harness", "write_mc_csv", None),
    ("control", "_evaluate_candidate", _count_candidate),
    ("control", "phd_update", _count_lookahead),
    ("control", "mixture_inner", None),
    ("divergence", "mixture_inner", None),
    ("divergence", "csd_poisson_gm", None),
    ("divergence", "csd_poisson_mixture", None),
    ("divergence", "csd_poisson_quadrature", None),
    ("gaussmix", "pairwise_log_inner", _count_pairwise),
    ("gaussmix", "mixture_log_eval", _count_log_eval),
    ("pointprocess", "mixture_log_eval", _count_log_eval),
    ("pointprocess", "mc_csd", _count_mc),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every boundary in BOUNDARIES, plus GaussianMixture construction."""
    with contextlib.ExitStack() as stack:
        for module_name, attr, count in BOUNDARIES:
            module = importlib.import_module(f"ppdiv.{module_name}")
            stack.enter_context(
                patched(module, attr, tracer.wrapper(f"{module_name}.{attr}", count))
            )
        gm_class = importlib.import_module("ppdiv.gaussmix").GaussianMixture
        stack.enter_context(
            patched(gm_class, "__init__", tracer.wrapper("gaussmix.GaussianMixture.__init__"))
        )
        yield tracer


def layer_metrics(tracer: Tracer, rounds: int, overhead_s: float) -> dict:
    """The per-layer metrics, per round of operations."""
    table = span_table(tracer.spans)
    counts = tracer.counts

    def incl(*names):
        return sum(table.get(n, {}).get("inclusive_s", 0.0) for n in names) / rounds

    def calls(*names):
        return sum(table.get(n, {}).get("calls", 0) for n in names) / rounds

    def share(part, whole):
        return counts[part] / counts[whole] if counts[whole] else 0.0

    inner = ("control.mixture_inner", "harness.mixture_inner", "divergence.mixture_inner")
    log_eval = ("gaussmix.mixture_log_eval", "pointprocess.mixture_log_eval")
    per_round = {k: v / rounds for k, v in counts.items()}
    s, c = "s", "count"
    values = {
        "control.select_action.s": (incl("harness.select_action"), s),
        "control.select_action.calls": (calls("harness.select_action"), c),
        "control.candidates": (per_round.get("candidates", 0.0), c),
        "gaussmix.mixture_inner.s": (incl(*inner), s),
        "gaussmix.mixture_inner.calls": (calls(*inner), c),
        "gaussmix.pairwise_log_inner.s": (incl("gaussmix.pairwise_log_inner"), s),
        "gaussmix.pairwise_log_inner.pairs": (per_round.get("pairwise.pairs", 0.0), c),
        "gaussmix.pairwise_log_inner.distinct_cov_share": (
            share("pairwise.distinct_rows", "pairwise.rows"),
            "share",
        ),
        "gmphd.phd_update.lookahead_s": (incl("control.phd_update"), s),
        "gmphd.phd_update.lookahead_components": (
            per_round.get("lookahead.components", 0.0),
            c,
        ),
        "gmphd.phd_update.zero_weight_share": (
            share("lookahead.zero_weight", "lookahead.components"),
            "share",
        ),
        "gmphd.phd_predict.s": (incl("harness.phd_predict"), s),
        "gmphd.phd_predict.components": (per_round.get("predict.components", 0.0), c),
        "gmphd.phd_update.filter_s": (incl("harness.phd_update"), s),
        "gaussmix.prune_merge.s": (incl("harness.prune_merge"), s),
        "gaussmix.prune_merge.in_components": (per_round.get("prune.in", 0.0), c),
        "gaussmix.prune_merge.out_components": (per_round.get("prune.out", 0.0), c),
        "gaussmix.GaussianMixture.inits": (calls("gaussmix.GaussianMixture.__init__"), c),
        "gaussmix.GaussianMixture.init_s": (incl("gaussmix.GaussianMixture.__init__"), s),
        "scenario.generate_measurements.s": (incl("harness.generate_measurements"), s),
        "scenario.measurements": (per_round.get("measurements", 0.0), c),
        "metrics.ospa.s": (incl("harness.ospa"), s),
        "harness.run_simulation.self_s": (
            table.get("harness.run_simulation", {}).get("self_s", 0.0) / rounds,
            s,
        ),
        "harness.emit_s": (incl("harness.write_run_csv", "harness.write_mc_csv"), s),
        "divergence.csd_poisson_gm.s": (incl("divergence.csd_poisson_gm"), s),
        "divergence.csd_poisson_mixture.s": (incl("divergence.csd_poisson_mixture"), s),
        "gaussmix.mixture_log_eval.s": (incl(*log_eval), s),
        "gaussmix.mixture_log_eval.point_components": (
            per_round.get("log_eval.point_components", 0.0),
            c,
        ),
        "divergence.csd_poisson_quadrature.s": (incl("divergence.csd_poisson_quadrature"), s),
        "pointprocess.mc_csd.s": (incl("pointprocess.mc_csd"), s),
        "pointprocess.mc_csd.samples": (per_round.get("mc.samples", 0.0), c),
        "trace.overhead_s": (overhead_s / rounds, s),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def size_summary(tracer: Tracer) -> dict:
    """min / median / max of the per-call sizes recorded at the boundaries."""
    return {
        name: {
            "calls": len(vals),
            "min": min(vals),
            "median": statistics.median(vals),
            "max": max(vals),
        }
        for name, vals in tracer.sizes.items()
        if vals
    }

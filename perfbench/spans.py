"""In-memory timing spans recorded from the benchmark's side of the package API.

While `Tracer.instrument` is active, every public micromaser function, as the
given module namespaces refer to it, and `GeneratorModel.apply` are replaced
by wrappers.  Each wrapper records (request, parent span, name, start, end)
and runs the counter for its name, if there is one.  Spans nest on one
thread, so traced runs use workers = 1.  A span's name is the defining module
(its layer) and the function, e.g. `steady.choose_truncation`.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import time
import weakref
from collections import Counter, defaultdict

import numpy as np

from micromaser.models import GeneratorModel

ROOT = "run"  # one span per traced run around cli.main or the dense route
# Layers reported as <layer>.self_s; the superop and fock totals are
# superop.dissipator_s and fock.operators_s.
SELF_LAYERS = ("cli", "steady", "models", "pump", "observables")
MODEL_BUILDERS = frozenset(
    f"models.{name}"
    for name in (
        "exact_model",
        "fourth_order_model",
        "weak_coupling_model",
        "general_weak_model",
        "uniform_model",
        "heuristic_model",
    )
)
START, END = 3, 4  # positions in a span record [request, parent, name, start, end]


def _matrix_bytes(model) -> int:
    """Computed bytes of the d x d arrays a model holds (tables and operators)."""
    arrays = list(model.lindblad_ops)
    if model.pump_extra is not None:
        arrays += [v for v in vars(model.pump_extra).values() if isinstance(v, np.ndarray)]
    return sum(a.nbytes for a in arrays if a.ndim == 2)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.first_span: list = []  # index of each request's root span
        self.counts: list = []  # per request: counter name -> value
        self._stack: list = []
        # id(model) -> [weak reference to the model, read by a row or assembly].
        # Weak, so that each model is freed inside the program as untraced;
        # the reference check keeps a reused id from matching a dead model.
        self._built: dict = {}

    # -- recording -------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        span = [len(self.first_span) - 1, self._stack[-1] if self._stack else -1, name, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
        self._count(name, result, args, kwargs)
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    def root(self, fn):
        """Wrap fn so that each call is one request under a root span.

        Only the root span's bookkeeping runs inside the wrapper; the caller
        calls end_request once the request has returned and its wall time is
        taken, so that the tracer's own clean-up stays out of that time.
        """

        @functools.wraps(fn)
        def request(*args, **kwargs):
            self.first_span.append(len(self.spans))
            self.counts.append(defaultdict(float))
            return self._call(ROOT, fn, args, kwargs)

        return request

    def end_request(self) -> None:
        """Drop the build records of the request that has just returned."""
        self._built = {}

    def _count(self, name, result, args, kwargs):
        counts = self.counts[-1]
        if name in MODEL_BUILDERS:
            counts["models.build_calls"] += 1
            self._built[id(result)] = [weakref.ref(result), False]
        elif name in ("models.GeneratorModel.apply", "models.assemble"):
            entry = self._built.get(id(args[0]))
            if entry is not None and entry[0]() is args[0] and not entry[1]:
                entry[1] = True
                counts["models.useful_builds"] += 1
            if name == "models.assemble":
                counts["superop.matrix_bytes"] += result.space.dim**4 * 8
        elif name == "pump.pump_average_tables":
            counts["pump.tables_bytes"] += sum(table.nbytes for table in result)
        elif name == "cli.solve_point" and result.model is not None:
            counts["models.retained_bytes"] += _matrix_bytes(result.model)
        elif name == "steady.recurrence_steady":
            space = args[1] if len(args) > 1 else kwargs["space"]
            counts["steady.n_max_sum"] += space.n_max

    @contextlib.contextmanager
    def instrument(self, namespaces):
        """Patch the public micromaser functions each namespace refers to."""
        patched = []
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                module = getattr(obj, "__module__", None) or ""
                if (
                    attr.startswith("_")
                    or attr == "main"
                    or not inspect.isfunction(obj)
                    or not module.startswith("micromaser.")
                ):
                    continue
                patched.append((ns, attr, obj))
                setattr(ns, attr, self.wrap(f"{module.rsplit('.', 1)[1]}.{attr}", obj))
        patched.append((GeneratorModel, "apply", GeneratorModel.apply))
        GeneratorModel.apply = self.wrap("models.GeneratorModel.apply", GeneratorModel.apply)
        try:
            yield self
        finally:
            for ns, attr, obj in reversed(patched):
                setattr(ns, attr, obj)

    # -- analysis --------------------------------------------------------

    def request_metrics(self, request: int, wall_s: float) -> tuple:
        """(metrics, info) of one request; times are self times unless named."""
        lo = self.first_span[request]
        hi = self.first_span[request + 1] if request + 1 < len(self.first_span) else len(self.spans)
        spans = self.spans[lo:hi]
        covered = defaultdict(float)
        for span in spans:
            if span[1] >= 0:
                covered[span[1]] += span[END] - span[START]
        own = defaultdict(float)
        calls = Counter()
        point_ms = []
        min_self = 0.0
        for i, span in enumerate(spans, start=lo):
            self_s = span[END] - span[START] - covered[i]
            min_self = min(min_self, self_s)
            own[span[2]] += self_s
            calls[span[2]] += 1
            if span[2] == "cli.solve_point":
                point_ms.append(1e3 * (span[END] - span[START]))
        counts = self.counts[request]

        def layer(name):
            return sum((v for k, v in own.items() if k.split(".", 1)[0] == name), 0.0)

        builds = counts["models.build_calls"]
        p50, (tail_pct, tail) = _nearest_rank(point_ms, 50.0), tail_percentile(point_ms)
        metrics = {
            "models.apply_s": own["models.GeneratorModel.apply"],
            "models.apply_calls": calls["models.GeneratorModel.apply"],
            "observables.linewidth_s": own["observables.linewidth"],
            "fock.operators_s": layer("fock"),
            "models.build_s": sum(own[name] for name in MODEL_BUILDERS),
            "models.build_calls": builds,
            "models.useful_build_ratio": counts["models.useful_builds"] / builds if builds else 0.0,
            "pump.tables_s": own["pump.pump_average_tables"],
            "pump.tables_bytes": counts["pump.tables_bytes"],
            "models.retained_bytes": counts["models.retained_bytes"],
            "steady.choose_truncation_s": own["steady.choose_truncation"],
            "steady.choose_truncation_calls": calls["steady.choose_truncation"],
            "steady.n_max_sum": counts["steady.n_max_sum"],
            "steady.recurrence_s": own["steady.recurrence_steady"],
            "observables.moments_s": own["observables.moments"],
            "cli.load_config_s": own["cli.load_config"],
            "cli.other_s": own[ROOT],
            "cli.point_p50_ms": p50,
            "cli.point_tail_ms": tail,
            "cli.output_s": own["cli.write_csv"] + own["cli.write_json"],
            "models.assemble_s": own["models.assemble"],
            "superop.dissipator_s": layer("superop"),
            "superop.matrix_bytes": counts["superop.matrix_bytes"],
            "steady.nullspace_s": own["steady.nullspace_steady"],
            "observables.linewidth_fd_s": own["observables.linewidth_fd"],
            "trace.spans": len(spans),
            "trace.coverage_ratio": sum(own.values()) / wall_s,
        }
        metrics.update({f"{name}.self_s": layer(name) for name in SELF_LAYERS})
        info = {"point_samples": len(point_ms), "tail_percentile": tail_pct, "min_self_s": min_self}
        return metrics, info

    def dump(self, path) -> None:
        """Write every span as a JSON line: request, span, parent, name, start_s, end_s."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (req, parent, name, start, end) in enumerate(self.spans):
                fh.write(json.dumps([req, i, parent, name, start, end]) + "\n")


def _nearest_rank(samples: list, pct: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples: list) -> tuple:
    """(percentile, value) at the highest of 99.9, 99, 90, 75 and 50 that
    leaves at least ten samples beyond it; the median when none does."""
    for pct in (99.9, 99.0, 90.0, 75.0, 50.0):
        if len(samples) * (1.0 - pct / 100.0) >= 10.0:
            return pct, _nearest_rank(samples, pct)
    return 50.0, _nearest_rank(samples, 50.0)

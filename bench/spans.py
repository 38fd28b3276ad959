"""Span tracing for the benchmark's traced run, and the per-layer metrics.

``install`` replaces the public functions of every vanetconn module (and the
estimator methods of ``montecarlo.EnsembleResult``) with wrappers that record
one span per call: name, parent span, start, end, and a few values computed
from the returned arrays.  The only private function wrapped is
``analytic._closed_form_mp``, whose calls count the otherwise silent
escalations of the closed form to arbitrary precision.

Spans stay in memory.  The invoking process writes its spans when the CLI
returns; a forked pool worker writes its own when it exits, so
``load`` merges one file per process.  ``layer_metrics`` turns the merged
spans of one CLI invocation into the per-layer numbers.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter

LAYERS = ("scenario", "channel", "graph", "montecarlo", "analytic", "numerics", "cli")
_ESTIMATORS = ("network_connectivity", "single_link", "node_degree",
               "vehicle_connectivity", "decider_mismatches")


def _nbytes(*arrays) -> int:
    return sum(int(a.nbytes) for a in arrays)


def _workers(args, kwargs) -> int:
    return int(kwargs.get("workers", args[6] if len(args) > 6 else 1))


# Values computed from a call's arguments and result: sizes and counts,
# never timings, so they repeat exactly for the same inputs.
_MEASURES = {
    "scenario.sample_headways": lambda a, k, r: {"bytes": _nbytes(r)},
    "scenario.placement_from_headways": lambda a, k, r: {
        "bytes": _nbytes(r.headways, r.positions, r.distances)},
    "channel.snr_matrix_unit_disc": lambda a, k, r: {"bytes": _nbytes(r)},
    "channel.snr_matrix_rayleigh": lambda a, k, r: {"bytes": _nbytes(r)},
    "graph.adjacency_from_snr": lambda a, k, r: {
        "bytes": _nbytes(r.adjacency, r.degrees, r.laplacian),
        "edges": int(r.degrees.sum()) // 2},
    "numerics.integrate_semi_infinite": lambda a, k, r: {"abserr": float(r[1])},
    "montecarlo.run_ensemble": lambda a, k, r: {"workers": _workers(a, k)},
}


class Tracer:
    """Records spans of one CLI invocation in the current process."""

    def __init__(self, out_dir: Path, trace_id: str):
        self.out_dir = Path(out_dir)
        self.trace_id = trace_id
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[str] = []
        self.count = 0
        # A forked pool worker starts with an empty buffer and writes it on exit.
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        mp_util.Finalize(None, self.flush, exitpriority=10)

    def wrap(self, name: str, fn):
        measure = _MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.count += 1
            span_id = f"{self.pid}:{self.count}"
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                self.stack.pop()
                attrs = measure(args, kwargs, result) if ok and measure else None
                # the third time closes the measurement, so a parent's self
                # time can leave out what computing attrs cost
                self.spans.append((span_id, parent, name, t0, t1, perf_counter(), attrs))

        return traced

    def flush(self) -> None:
        path = self.out_dir / f"spans-{self.trace_id}-{self.pid}.json"
        path.write_text(json.dumps({"pid": self.pid, "spans": self.spans}))


def install(out_dir: Path, trace_id: str) -> Tracer:
    """Wrap every public function (a name without a leading underscore) of each layer."""
    from vanetconn import analytic, cli  # noqa: F401  (loads every layer)

    tracer = Tracer(out_dir, trace_id)
    modules = [m for n, m in sys.modules.items() if n == "vanetconn" or n.startswith("vanetconn.")]
    targets = {}
    for layer in LAYERS:
        module = sys.modules[f"vanetconn.{layer}"]
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                targets[obj] = f"{layer}.{attr}"
    targets[analytic._closed_form_mp] = "analytic._closed_form_mp"
    for fn, name in targets.items():
        wrapped = tracer.wrap(name, fn)
        # rebind every reference, including names imported into other modules
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
    result_cls = sys.modules["vanetconn.montecarlo"].EnsembleResult
    for method in _ESTIMATORS:
        setattr(result_cls, method,
                tracer.wrap(f"montecarlo.EnsembleResult.{method}", getattr(result_cls, method)))
    return tracer


def load(out_dir: Path, trace_id: str) -> tuple[int, list[tuple]]:
    """Merge the span files of one invocation; returns (invoking pid, spans)."""
    main_pid, spans = None, []
    for path in sorted(Path(out_dir).glob(f"spans-{trace_id}-*.json")):
        data = json.loads(path.read_text())
        spans.extend(tuple(s) for s in data["spans"])
        if any(s[2] == "cli.main" for s in data["spans"]):
            main_pid = data["pid"]
    return main_pid, spans


def layer_metrics(main_pid: int, spans: list[tuple]) -> dict[str, float]:
    """Per-layer numbers of one invocation from its merged spans.

    ``*_ms`` values are per trial (ensemble layers) or per call (analytic and
    numerics); counts are per invocation; bytes are per trial.
    """
    by_name: dict[str, list[tuple]] = {}
    children: dict[str, list[tuple]] = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)
        if s[1] is not None:
            children.setdefault(s[1], []).append(s)

    def total(*names):
        return sum(s[4] - s[3] for n in names for s in by_name.get(n, ()))

    def attr_sum(name, key):
        # a call that raised has no attrs
        return sum(s[6][key] for s in by_name.get(name, ()) if s[6])

    def self_time(name):
        # only for spans whose children run in the same process; a child's extent
        # includes the time its wrapper spent computing attrs
        return sum((s[4] - s[3]) - sum(c[5] - c[3] for c in children.get(s[0], ()))
                   for s in by_name.get(name, ()))

    def per(value, count, scale=1.0):
        return scale * value / count if count else 0.0

    trials = len(by_name.get("montecarlo.run_trial", ()))
    in_main = f"{main_pid}:"
    ensembles = [s for s in by_name.get("montecarlo.run_ensemble", ()) if s[0].startswith(in_main)]
    pools = [s for s in ensembles if s[6] and s[6]["workers"] > 1]
    pool_capacity = sum(s[6]["workers"] * (s[4] - s[3]) for s in pools)
    worker_trial_s = sum(s[4] - s[3] for s in by_name.get("montecarlo.run_trial", ())
                         if not s[0].startswith(in_main))
    estimators = [f"montecarlo.EnsembleResult.{m}" for m in _ESTIMATORS]
    closed = len(by_name.get("analytic.p_sl_rayleigh_closed_alpha2", ()))
    escalations = len(by_name.get("analytic._closed_form_mp", ()))
    quad = by_name.get("numerics.integrate_semi_infinite", ())
    analytic_calls = sum(len(v) for n, v in by_name.items()
                         if n.startswith("analytic.") and n != "analytic._closed_form_mp")
    return {
        "scenario.place_ms": per(total("scenario.sample_headways",
                                       "scenario.placement_from_headways"), trials, 1e3),
        "scenario.bytes": per(attr_sum("scenario.sample_headways", "bytes")
                              + attr_sum("scenario.placement_from_headways", "bytes"), trials),
        "channel.draw_ms": per(total("channel.snr_matrix_unit_disc",
                                     "channel.snr_matrix_rayleigh"), trials, 1e3),
        "channel.bytes": per(attr_sum("channel.snr_matrix_unit_disc", "bytes")
                             + attr_sum("channel.snr_matrix_rayleigh", "bytes"), trials),
        "graph.build_ms": per(total("graph.adjacency_from_snr"), trials, 1e3),
        "graph.edges": per(attr_sum("graph.adjacency_from_snr", "edges"), trials),
        "graph.bytes": per(attr_sum("graph.adjacency_from_snr", "bytes"), trials),
        "graph.eigen_ms": per(total("graph.is_connected"), trials, 1e3),
        "graph.components_ms": per(total("graph.count_partitions_unionfind"), trials, 1e3),
        "montecarlo.trial_self_ms": per(self_time("montecarlo.run_trial"), trials, 1e3),
        "montecarlo.estimate_ms": per(total(*estimators), len(ensembles), 1e3),
        "montecarlo.trials": float(trials),
        "montecarlo.pools": float(len(pools)),
        "montecarlo.pool_wait_s": sum((s[4] - s[3] for s in pools), 0.0),
        "montecarlo.worker_busy_frac": per(worker_trial_s, pool_capacity),
        "analytic.calls": float(analytic_calls),
        "analytic.closed_form_ms": per(total("analytic.p_sl_rayleigh_closed_alpha2"), closed, 1e3),
        "analytic.quad_path_ms": per(total("analytic.p_sl_rayleigh"),
                                     len(by_name.get("analytic.p_sl_rayleigh", ())), 1e3),
        "analytic.mp_escalations": float(escalations),
        "analytic.mp_escalation_frac": per(escalations, closed),
        "numerics.quad_calls": float(len(quad)),
        "numerics.quad_ms": per(total("numerics.integrate_semi_infinite"), len(quad), 1e3),
        "numerics.quad_abserr_max": max((s[6]["abserr"] for s in quad), default=0.0),
        "cli.self_ms": self_time("cli.main") * 1e3,
    }

"""Spans around the program's layer entry points, recorded from outside.

`install` replaces each entry point under the name its caller looks it
up by (a module attribute, a class attribute or a registry entry), so
nothing under src/ changes. A span is

    [id, name, start_ns, end_ns, parent_id, op, work, extra]

`op` is the invocation's op id, or "N<n>/r<replica>" inside one coupled
run of a sweep; `work` and `extra` carry the layer's own count (values,
rows, particle-steps, bytes, ...). Spans live in memory and are written
once, when the invocation ends. Spans started on a particle-chunk pool
thread have no parent: the pool gives no seam to hand the caller's span
across, so they count towards their own layer but are never subtracted
from an engine span's self time.

`layer_metrics` turns the spans of one invocation into the per-layer
metrics the benchmark reports.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import threading
import time

from stats import high_percentile, median, self_time


class Recorder:
    def __init__(self, op: str):
        self.op = op
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name, fn, work=None, op_of=None, extra=None):
        """Wrap fn so every call records a span.

        work(args, kwargs) and op_of(args, kwargs) read the call's
        arguments; extra(args, kwargs, result) reads its result as well.
        """
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            op = op_of(args, kwargs) if op_of else (parent[1] if parent else self.op)
            sid = next(ids)
            stack.append((sid, op))
            out = None
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                spans.append([sid, name, t0, t1, parent[0] if parent else None, op,
                              work(args, kwargs) if work else 1,
                              extra(args, kwargs, out) if extra and out is not None else None])
        return traced


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def install(rec: Recorder) -> None:
    """Patch every traced entry point of the mfchaos package."""
    from mfchaos import chaos, cli, engine, measures, model, rng, solver

    def patch(owner, attr, name, **kw):
        setattr(owner, attr, rec.wrap(name, getattr(owner, attr), **kw))

    def n_values(a, k):
        return int(_arg(a, k, 3, "n"))

    patch(rng, "normals", "rng.normals", work=n_values)
    patch(rng, "uniforms", "rng.uniforms", work=n_values)

    patch(engine, "_eval_coeffs", "model.coeffs")
    patch(engine, "_chunked", "engine.chunked", extra=lambda a, k, out: len(out))
    patch(engine.SegmentBatch, "integral_against", "engine.delay_integral",
          work=lambda a, k: len(a[0]) * len(_arg(a, k, 1, "m").locations))
    patch(engine, "_run", "engine.run",
          work=lambda a, k: _arg(a, k, 2, "ensemble").n * _arg(a, k, 0, "config").steps)
    patch(chaos, "simulate_coupled", "engine.coupled",
          work=lambda a, k: 2 * _arg(a, k, 0, "config").N * _arg(a, k, 0, "config").steps)

    # the model's path drift is a field of a frozen ModelSpec; wrap it as
    # each zoo factory hands the spec out (the CLI looks factories up here)
    def traced_factory(factory):
        @functools.wraps(factory)
        def make(**params):
            spec = factory(**params)
            return dataclasses.replace(
                spec, path_drift=rec.wrap("model.path_drift", spec.path_drift))
        return make

    for key, factory in list(model.MODEL_ZOO.items()):
        model.MODEL_ZOO[key] = traced_factory(factory)

    patch(measures.EmpiricalMeasure, "__init__", "measures.empirical")

    def w1_rows_bytes(a, k, _out):
        xs, ys = a[0], a[1]
        rows, n, m = xs.shape[0], xs.shape[1], ys.shape[1]
        return 8 * rows * (n + m + max(n, m))

    def w1_bytes(a, k, _out):
        n, m = len(a[0]), len(a[1])
        return 8 * (n + m + max(n, m))

    patch(solver, "w1_sorted_rows", "measures.w1",
          work=lambda a, k: a[0].shape[0], extra=w1_rows_bytes)
    patch(solver, "w1_sorted", "measures.w1", extra=w1_bytes)

    patch(solver, "solve_fixed_point", "solver.solve",
          extra=lambda a, k, res: [res.iterations, res.reason])
    patch(solver, "apply_phi", "solver.apply_phi")
    patch(solver, "rho_metric", "solver.rho")
    from_record = solver.MeasureFlow.__dict__["from_record"].__func__
    solver.MeasureFlow.from_record = classmethod(rec.wrap("solver.flow_sort", from_record))

    patch(chaos, "build_reference_flow", "chaos.reference")
    patch(chaos, "_one_coupled_run", "chaos.run",
          op_of=lambda a, k: f"N{_arg(a, k, 3, 'N')}/r{_arg(a, k, 4, 'replica')}")
    patch(chaos, "_coupled_sweep", "chaos.sweep",
          work=lambda a, k: int(_arg(a, k, 5, "workers", 1)))

    patch(cli, "_write_lines", "cli.write")
    for owner, attr in ((engine.PathRecord, "write_csv"),
                        (solver.MeasureFlow, "write_csv"),
                        (solver.FixedPointResult, "write_diagnostics_csv"),
                        (chaos.RateReport, "write_csv"),
                        (chaos.RateReport, "write_summary_csv"),
                        (chaos.RateReport, "write_runs_csv")):
        patch(owner, attr, "cli.write")


# ---------------------------------------------------------------------------
# spans -> per-layer metrics

# counts that must repeat exactly between invocations with the same seed
EXACT_COUNTS = ("rng.calls", "rng.values", "engine.particle_steps", "measures.w1_rows",
                "measures.w1_bytes_computed", "solver.iterations", "cli.bytes_written")

UNITS = {
    "rng.calls": "count", "rng.values": "count", "rng.busy_s": "s", "rng.us_per_call": "us",
    "model.coeff_calls": "count", "model.coeff_s": "s", "model.path_drift_s": "s",
    "engine.runs": "count", "engine.particle_steps": "count", "engine.self_s": "s",
    "engine.ns_per_particle_step": "ns", "engine.delay_atom_evals": "count",
    "engine.delay_integral_s": "s", "engine.pool_dispatches": "count",
    "measures.empirical_calls": "count", "measures.empirical_s": "s",
    "measures.w1_rows": "count", "measures.w1_s": "s", "measures.w1_ns_per_row": "ns",
    "measures.w1_bytes_computed": "B",
    "solver.iterations": "count", "solver.apply_phi_s": "s", "solver.rho_s": "s",
    "solver.flow_sort_s": "s",
    "chaos.reference_s": "s", "chaos.runs": "count", "chaos.run_ms_p50": "ms",
    "chaos.run_ms_p90": "ms", "chaos.pool_utilization": "frac",
    "cli.write_s": "s", "cli.bytes_written": "B", "cli.rows_written": "count",
    "cli.write_mb_per_s": "MB/s",
    "yamada.import_s": "s",
    "trace_overhead_frac": "frac",
}


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(spans, bytes_written: int, rows_written: int,
                  yamada_import_s: float) -> tuple[dict, str]:
    """Per-layer metrics of one traced invocation, plus the solver's stop reason."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = {}
    named: dict[str, list] = {}
    for s in spans:
        named.setdefault(s[1], []).append(s)
        if s[4] is not None:
            children.setdefault(s[4], []).append((s[2], s[3]))

    def dur(s):
        return (s[3] - s[2]) * 1e-9

    def total_s(*names):
        return sum((dur(s) for n in names for s in named.get(n, ())), 0.0)

    def work(*names):
        return sum(s[6] for n in names for s in named.get(n, ()))

    rng_top = [s for s in named.get("rng.normals", []) + named.get("rng.uniforms", [])
               if s[4] is None or not by_id[s[4]][1].startswith("rng.")]
    rng_busy = sum(dur(s) for s in rng_top)

    engine_spans = named.get("engine.run", []) + named.get("engine.coupled", [])
    steps = work("engine.run", "engine.coupled")
    engine_self = sum(self_time(s[2], s[3], children.get(s[0], ())) for s in engine_spans) * 1e-9

    w1_rows = work("measures.w1")
    w1_s = total_s("measures.w1")

    solves = named.get("solver.solve", [])
    iterations = sum(s[7][0] for s in solves if s[7])
    stop_reason = ";".join(s[7][1] for s in solves if s[7]) or "-"

    run_ms = [dur(s) * 1e3 for s in named.get("chaos.run", [])]
    sweep_capacity = sum(dur(s) * s[6] for s in named.get("chaos.sweep", []))
    write_s = total_s("cli.write")

    m = {
        "rng.calls": len(rng_top),
        "rng.values": sum(s[6] for s in rng_top),
        "rng.busy_s": rng_busy,
        "rng.us_per_call": _ratio(rng_busy, len(rng_top), 1e6),
        "model.coeff_calls": len(named.get("model.coeffs", [])),
        "model.coeff_s": total_s("model.coeffs"),
        "model.path_drift_s": total_s("model.path_drift"),
        "engine.runs": len(engine_spans),
        "engine.particle_steps": steps,
        "engine.self_s": engine_self,
        "engine.ns_per_particle_step": _ratio(total_s("engine.run", "engine.coupled"), steps, 1e9),
        "engine.delay_atom_evals": work("engine.delay_integral"),
        "engine.delay_integral_s": total_s("engine.delay_integral"),
        "engine.pool_dispatches": sum(1 for s in named.get("engine.chunked", []) if s[7] > 1),
        "measures.empirical_calls": len(named.get("measures.empirical", [])),
        "measures.empirical_s": total_s("measures.empirical"),
        "measures.w1_rows": w1_rows,
        "measures.w1_s": w1_s,
        "measures.w1_ns_per_row": _ratio(w1_s, w1_rows, 1e9),
        "measures.w1_bytes_computed": sum(s[7] or 0 for s in named.get("measures.w1", [])),
        "solver.iterations": iterations,
        "solver.apply_phi_s": total_s("solver.apply_phi"),
        "solver.rho_s": total_s("solver.rho"),
        "solver.flow_sort_s": total_s("solver.flow_sort"),
        "chaos.reference_s": total_s("chaos.reference"),
        "chaos.runs": len(run_ms),
        "chaos.run_ms_p50": median(run_ms) if run_ms else 0.0,
        "chaos.run_ms_p90": high_percentile(run_ms, 0.9) or 0.0,
        "chaos.pool_utilization": _ratio(sum(run_ms) * 1e-3, sweep_capacity),
        "cli.write_s": write_s,
        "cli.bytes_written": bytes_written,
        "cli.rows_written": rows_written,
        "cli.write_mb_per_s": _ratio(bytes_written, write_s, 1e-6),
        "yamada.import_s": yamada_import_s,
    }
    return m, stop_reason

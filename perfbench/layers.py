"""The traced run behind ``--trace 1``: per-layer counts and self times.

Units of work run in pairs — one untraced, one with every layer boundary
wrapped (:mod:`spans`) — until ``--seconds`` is spent.  A unit is one op,
or for the quote stream four (256 quotes and one flush).  Counts come
from the first traced unit only, so two runs with the same seed report
identical counts whatever the host speed; times are medians over the
traced units, scaled by the adjacent calibration like the end-to-end
metrics.  Every workload reports every per-layer metric: a layer the
workload does not reach reads 0, which is the prediction the README's
table makes for it.
"""

from __future__ import annotations

import os
import statistics
import time

from repro.obs import Telemetry
from repro.obs.traceexport import chrome_trace, write_chrome_trace
from repro.service import QuoteCache, QuoteService

import paths as P
import spans
from calib import CALIB_REF_MS, timed

#: name -> unit; counts repeat exactly for a seed, times are medians.
COUNTS = {
    "tree_solver.base_rows": "rows", "tree_solver.direct_calls": "count",
    "tree_solver.fft_calls": "count", "tree_solver.trapezoids": "count",
    "bsm_solver.base_rows": "rows", "fftstencil.advance_calls": "count",
    "fftstencil.spectrum_hit_ratio": "ratio",
    "fftstencil.block_hit_ratio": "ratio", "lockstep.rounds": "count",
    "lockstep.mean_width": "rows", "risk.n_chunks": "count",
    "spectral.calls": "count", "spectral.plan_misses": "count",
    "implied.solves_per_vol": "solves", "implied.iterations": "count",
    "implied.warm_starts": "count", "implied.newton_frac": "ratio",
    "service.hit_ratio": "ratio", "service.evictions": "count",
    "service.solves": "count", "service.batches": "count",
    "service.fast_quotes": "count", "service.tier_upgrades": "count",
}
TIMES = {
    "tree_solver.self_ms": "ms", "bsm_solver.self_ms": "ms",
    "fftstencil.advance_ms": "ms", "fftstencil.fft_share": "ratio",
    "fftstencil.advance_batch_ms": "ms", "fftstencil.base_rows_batch_ms": "ms",
    "lockstep.self_ms": "ms", "risk.dispatch_ms": "ms",
    "risk.pool_overhead_ms": "ms", "spectral.price_ms": "ms",
    "implied.self_ms": "ms", "service.canonicalize_us": "us",
    "service.cache_get_us": "us", "service.bucket_solve_ms": "ms",
    "service.flush_ms": "ms",
}
PROBES = {
    "service.hit_us": "us", "service.quote_p99_ms": "ms",
    "obs.hit_overhead_us": "us", "baselines.loop_t12_ms": "ms",
    "host.calib_ms": "ms", "trace.overhead_frac": "ratio",
}
UNITS = {**COUNTS, **TIMES, **PROBES}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _engine_facts(info) -> dict:
    if not info:
        return {}
    return {
        "fftstencil.spectrum_hit_ratio": _ratio(
            info["spectrum_hits"], info["spectrum_hits"] + info["spectrum_misses"]),
        "fftstencil.block_hit_ratio": _ratio(
            info["block_hits"], info["block_hits"] + info["block_misses"]),
        "lockstep.mean_width": _ratio(info["batched_inputs"], info["batch_advances"]),
    }


def _service_counters(svc) -> dict:
    stats = svc.stats()
    out = {k: stats["cache"][k] for k in ("hits", "misses", "evictions")}
    out.update({k: stats["service"][k] for k in
                ("solves", "batches", "fast_quotes", "tier_upgrades")})
    return out


def _result_facts(w, before: dict | None) -> dict:
    """Counts the traced op's own results report (per op)."""
    if isinstance(w, P.Solve):
        stats = w.last.stats
        out = _engine_facts(w.engine.cache_info())
        if w.model == "bsm-fd":
            out["bsm_solver.base_rows"] = stats["base_rows"]
        else:
            for k in ("base_rows", "direct_calls", "fft_calls", "trapezoids"):
                out[f"tree_solver.{k}"] = stats[k]
        return out
    if isinstance(w, P.Grid):
        out = _engine_facts(w.last.meta.get("engine"))
        out["risk.n_chunks"] = w.last.meta["n_chunks"]
        return out
    if isinstance(w, P.Ladder):
        rep = w.last
        n = len(rep.results)
        out = _engine_facts(w.engine.cache_info())
        out.update({
            "implied.solves_per_vol": rep.solves / n,
            "implied.iterations": rep.iterations,
            "implied.warm_starts": rep.warm_starts,
            "implied.newton_frac": sum(r.newton for r in rep.results) / n,
        })
        return out
    after = _service_counters(w.service)
    d = {k: after[k] - before[k] for k in after}
    return {
        "service.hit_ratio": _ratio(d["hits"], d["hits"] + d["misses"]),
        "service.evictions": d["evictions"],
        "service.solves": d["solves"],
        "service.batches": d["batches"],
        "service.fast_quotes": d["fast_quotes"],
        "service.tier_upgrades": d["tier_upgrades"],
    }


def _span_times(bd: dict, rounds: int, scale: float) -> dict:
    """Span counts and (calibrated) times of one traced unit, from its
    :meth:`spans.Recorder.breakdown`."""

    def get(name, field):
        return bd.get(name, {}).get(field, 0)

    ms, us = 1e3 * scale, 1e6 * scale
    wall = get("op", "total_s")
    advance = get("fftstencil.advance", "total_s")
    return {
        "fftstencil.advance_calls": get("fftstencil.advance", "count"),
        "lockstep.rounds": rounds,
        "spectral.calls": get("spectral.price_spec", "count"),
        "tree_solver.self_ms": get("tree_solver", "self_s") * ms,
        "bsm_solver.self_ms": get("bsm_solver", "self_s") * ms,
        "fftstencil.advance_ms": advance * ms,
        "fftstencil.fft_share": _ratio(advance, wall),
        "fftstencil.advance_batch_ms": get("fftstencil.advance_batch", "total_s") * ms,
        "fftstencil.base_rows_batch_ms":
            get("fftstencil.base_rows_batch", "total_s") * ms,
        "lockstep.self_ms": get("lockstep", "self_s") * ms,
        "risk.dispatch_ms": get("risk.price_grid", "self_s") * ms,
        "spectral.price_ms": get("spectral.price_spec", "total_s") * ms,
        "op.self_ms": get("op", "self_s") * ms,
        "service.canonicalize_us": us * _ratio(
            get("service.canonicalize", "total_s"), get("service.canonicalize", "count")),
        "service.cache_get_us": us * _ratio(
            get("service.cache_get", "total_s"), get("service.cache_get", "count")),
        "service.bucket_solve_ms": get("service.bucket_solve", "total_s") * ms,
        "service.flush_ms": get("service.flush", "total_s") * ms,
    }


def _self_time_problems(bd: dict) -> list[str]:
    """Self times are non-negative and add up to at most the ops' wall."""
    problems = [f"negative self time for {name}"
                for name, a in bd.items() if a["self_s"] < -1e-9]
    wall = bd.get("op", {}).get("total_s", 0.0)
    if sum(a["self_s"] for a in bd.values()) > wall * (1 + 1e-9) + 1e-9:
        problems.append("self times exceed the traced ops' wall time")
    return problems


def _hit_us(w) -> float:
    """The quote stream's hit-path probe, calibrated (us per quote)."""
    values = []
    for _ in range(8):
        n, s = timed(w.probe)
        values.append(s.cal_s / n)
    return statistics.median(values) * 1e6


def _hit_overhead_us(head) -> float:
    """Hit latency with ``Telemetry()`` minus without, on twin services
    sharing one warm cache, in interleaved blocks (us per quote)."""
    cache = QuoteCache(maxsize=P.CACHE_SIZE)
    bare = QuoteService(cache=cache)
    observed = QuoteService(cache=cache, telemetry=Telemetry())
    for spec in head:
        bare.submit(spec, P.QUOTE_STEPS)
    bare.flush()
    diffs = []
    for _ in range(8):
        per = {}
        for name, svc in (("bare", bare), ("observed", observed)):
            _, s = timed(lambda: [svc.quote(x, P.QUOTE_STEPS) for x in head])
            per[name] = s.cal_s / len(head)
        diffs.append(per["observed"] - per["bare"])
    return statistics.median(diffs) * 1e6


def traced_run(w: P.Workload, args, out_dir: str):
    """Returns ``(metrics, sample counts, problems found)``."""
    # Per-layer figures are per traced unit: one op, or for the quote
    # stream four 64-request ops, i.e. 256 quotes and one flush.
    ops = P.FLUSH_EVERY // P.QUOTE_BLOCK if isinstance(w, P.QuoteStream) else 1
    spectral = P.get_backend("spectral")
    probe = w.probe
    recorder = spans.Recorder()
    units: list[dict] = []
    overhead: list[float] = []
    calib: list[float] = []
    plain_items: list = []
    problems: list[str] = []
    # the pool path is timed here, untraced, against the serial grid
    pooled = (
        P.Grid(w.inp, "grid_pooled", "process") if w.name == "grid_lattice" else None
    )
    t_end = time.perf_counter() + args.seconds
    while True:
        plain = []
        for _ in range(ops):
            plain.append(timed(w.op)[1])
            plain_items += [x * plain[-1].scale for x in w.items]
            w.items.clear()
        if probe is not None:
            plain_probe = timed(probe)[1]
        recorder.reset()
        before = _service_counters(w.service) if isinstance(w, P.QuoteStream) else None
        misses0 = spectral.cache_info()["misses"]
        with spans.installed(recorder):
            traced = [timed(lambda: recorder.call("op", w.op))[1] for _ in range(ops)]
            facts = _result_facts(w, before)
            # the ops' spans only: read before the probe adds its own
            bd = recorder.breakdown()
            if not units:
                os.makedirs(out_dir, exist_ok=True)
                write_chrome_trace(
                    os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"),
                    chrome_trace(recorder.tracer, process_name=f"perfbench {w.name}"),
                )
            if probe is not None:
                traced_probe = timed(lambda: recorder.call("probe", probe))[1]
        w.items.clear()
        scale = CALIB_REF_MS / statistics.median(s.calib_ms for s in traced)
        unit = _span_times(bd, recorder.rounds, scale)
        op_self_ms = unit.pop("op.self_ms")
        if isinstance(w, P.Ladder):
            # the ladder's own root-finding work, outside its lattice solves
            unit["implied.self_ms"] = op_self_ms
        unit.update(facts)
        unit["spectral.plan_misses"] = spectral.cache_info()["misses"] - misses0
        if pooled is not None:
            _, s = timed(pooled.op)
            unit["risk.pool_overhead_ms"] = (s.cal_s - plain[0].cal_s) * 1e3
            unit["risk.n_chunks"] = pooled.last.meta["n_chunks"]
        units.append(unit)
        problems += _self_time_problems(bd)
        if probe is None:
            overhead.append(sum(s.cal_s for s in traced) / sum(s.cal_s for s in plain) - 1)
        else:
            # successive stream ops differ; the probe repeats the same work
            overhead.append(traced_probe.cal_s / plain_probe.cal_s - 1)
        calib += [s.calib_ms for s in plain + traced]
        if time.perf_counter() > t_end:
            break
    recorder.reset()

    metrics = dict.fromkeys(UNITS, 0.0)
    for name in units[0]:
        values = [u[name] for u in units]
        metrics[name] = values[0] if name in COUNTS else statistics.median(values)
    if isinstance(w, P.QuoteStream):
        metrics["service.hit_us"] = _hit_us(w)
        metrics["service.quote_p99_ms"] = statistics.quantiles(plain_items, n=100)[98] * 1e3
        metrics["obs.hit_overhead_us"] = _hit_overhead_us(w.inp.head)
    metrics["host.calib_ms"] = statistics.median(calib)
    metrics["trace.overhead_frac"] = statistics.median(overhead)
    counts = {name: (1 if name in COUNTS else len(units)) for name in metrics}
    counts["service.quote_p99_ms"] = len(plain_items)
    counts["host.calib_ms"] = len(calib)
    return metrics, counts, problems

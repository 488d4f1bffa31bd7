"""Advance throughput of the plan-caching AdvanceEngine.

Measures three things across ``T in {2^10 .. 2^17}`` and writes
``BENCH_advance_engine.json`` (repo root by default):

1. **Repeated same-height advances** — the kernel-spectrum cache-hit path
   (one rFFT + pointwise multiply + irFFT against a cached conjugated
   kernel spectrum) versus a stateless ``scipy.signal.fftconvolve`` call
   (three transforms of a larger pad plus a reversed-kernel copy per
   call).  This is the access pattern of the trapezoid recursion, which
   requests the same ``(taps, h)`` kernel at every level.
2. **Full solves** — ``solve_tree_fft`` on a warm shared engine (the
   batch-of-solves case) versus a cold engine per solve, with the prices
   required to agree to 1e-10 relative.
3. **Batched portfolio jumps** — ``advance_batch`` with one kernel
   repeated over a strike strip versus the same advances issued
   sequentially.

Run ``python benchmarks/bench_advance_engine.py`` for the full sweep or
``--quick`` for a CI smoke pass (not a substitute for the pytest suite).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np
from scipy.signal import fftconvolve

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import bench_report, write_bench_report  # noqa: E402
from repro.core.fftstencil import AdvanceEngine  # noqa: E402
from repro.core.tree_solver import solve_tree_fft  # noqa: E402
from repro.core.weights import hstep_weights  # noqa: E402
from repro.options.contract import paper_benchmark_spec  # noqa: E402
from repro.options.params import BinomialParams  # noqa: E402

SPEC = paper_benchmark_spec()


def _best_of(fn, repeats: int) -> float:
    """Best wall-clock of ``repeats`` timed calls (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_repeated_advance(T: int, inner: int, repeats: int) -> dict:
    """Same-height advance issued ``inner`` times: fftconvolve vs warm engine."""
    params = BinomialParams.from_spec(SPEC, T)
    h = T // 2
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 100.0, size=T + 1)

    warm = AdvanceEngine()
    warm.advance(x, params.taps, h, scale=SPEC.strike)  # materialise the plan

    def legacy():
        # stateless: fetch the kernel and transform it again on every call
        w = hstep_weights(params.taps, h)
        return fftconvolve(x, w[::-1], mode="valid")

    def run_legacy():
        for _ in range(inner):
            legacy()

    def run_cached():
        for _ in range(inner):
            warm.advance(x, params.taps, h, scale=SPEC.strike)

    t_legacy = _best_of(run_legacy, repeats) / inner
    t_cached = _best_of(run_cached, repeats) / inner
    y_old = legacy()
    y_new, _ = warm.advance(x, params.taps, h)
    rel_err = float(np.max(np.abs(y_new - y_old)) / np.max(np.abs(y_old)))
    return {
        "T": T,
        "h": h,
        "input_len": len(x),
        "legacy_s": t_legacy,
        "cached_s": t_cached,
        "speedup": t_legacy / t_cached,
        "max_rel_err": rel_err,
    }


def bench_full_solve(T: int, repeats: int) -> dict:
    """solve_tree_fft on a warm shared engine vs a cold engine per solve."""
    params = BinomialParams.from_spec(SPEC, T)
    t_cold = _best_of(
        lambda: solve_tree_fft(params, engine=AdvanceEngine()), repeats
    )
    shared = AdvanceEngine()
    solve_tree_fft(params, engine=shared)  # warm (batch-of-solves scenario)
    t_warm = _best_of(lambda: solve_tree_fft(params, engine=shared), repeats)
    r_cold = solve_tree_fft(params, engine=AdvanceEngine())
    r_warm = solve_tree_fft(params, engine=shared)
    rel = abs(r_warm.price - r_cold.price) / abs(r_cold.price)
    return {
        "T": T,
        "cold_s": t_cold,
        "warm_s": t_warm,
        "speedup": t_cold / t_warm,
        "price_cold": r_cold.price,
        "price_warm": r_warm.price,
        "price_rel_err": rel,
        "spectrum_hits": r_cold.stats.spectrum_hits,
        "spectrum_misses": r_cold.stats.spectrum_misses,
        "fft_calls": r_cold.stats.fft_calls,
    }


def bench_batched(T: int, batch: int, repeats: int) -> dict:
    """One-kernel advance_batch over a strike strip vs sequential advances."""
    params = BinomialParams.from_spec(SPEC, T)
    h = T
    rng = np.random.default_rng(1)
    xs = [rng.uniform(0.0, 100.0, size=T + h + 1) for _ in range(batch)]
    engine = AdvanceEngine()
    engine.advance(xs[0], params.taps, h, scale=SPEC.strike)  # warm

    t_seq = _best_of(
        lambda: [engine.advance(x, params.taps, h, scale=SPEC.strike) for x in xs],
        repeats,
    )
    kernels = [(params.taps, h)] * batch
    t_batch = _best_of(
        lambda: engine.advance_batch(xs, kernels, scales=SPEC.strike), repeats
    )
    return {
        "T": T,
        "batch": batch,
        "sequential_s": t_seq,
        "batched_s": t_batch,
        "speedup": t_seq / t_batch,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small sweep for CI smoke runs"
    )
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_advance_engine.json",
        ),
    )
    args = parser.parse_args()

    if args.quick:
        sizes = [2**10, 2**12]
        repeats, inner = 2, 4
    else:
        sizes = [2**k for k in range(10, 18)]
        repeats, inner = 3, 8

    report = bench_report(
        "advance_engine",
        smoke=args.quick,
        quick=args.quick,
        sizes=sizes,
        repeated_advance=[],
        full_solve=[],
        batched=[],
    )
    for T in sizes:
        row = bench_repeated_advance(T, inner, repeats)
        report["repeated_advance"].append(row)
        print(
            f"advance  T={T:>7} h={row['h']:>6}  fftconvolve {row['legacy_s']*1e3:8.3f} ms"
            f"  cached {row['cached_s']*1e3:8.3f} ms  speedup {row['speedup']:5.2f}x"
        )
    for T in sizes:
        row = bench_full_solve(T, repeats)
        report["full_solve"].append(row)
        print(
            f"solve    T={T:>7}  cold {row['cold_s']:8.3f} s"
            f"  warm {row['warm_s']:8.3f} s  speedup {row['speedup']:5.2f}x"
            f"  rel_err {row['price_rel_err']:.2e}"
        )
        assert row["price_rel_err"] <= 1e-10, "warm-engine price drifted from cold"
    for T in sizes[: len(sizes) // 2 + 1]:
        row = bench_batched(T, batch=16, repeats=repeats)
        report["batched"].append(row)
        print(
            f"batch    T={T:>7} x16  sequential {row['sequential_s']*1e3:8.3f} ms"
            f"  batched {row['batched_s']*1e3:8.3f} ms  speedup {row['speedup']:5.2f}x"
        )

    report["summary"] = {
        "max_advance_speedup": max(
            r["speedup"] for r in report["repeated_advance"]
        ),
        "max_solve_speedup": max(r["speedup"] for r in report["full_solve"]),
        "max_price_rel_err": max(
            r["price_rel_err"] for r in report["full_solve"]
        ),
    }
    write_bench_report(
        args.out,
        report,
        speedup=report["summary"]["max_solve_speedup"],
        drift=report["summary"]["max_price_rel_err"],
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

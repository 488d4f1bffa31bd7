"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload solve_t16 --seed 1 --seconds 10 --trace 0

Run from the repository root.  It imports ``repro`` from ``src/``, times
the import and the workload's set-up several times each (the medians make
``setup_s``), times its op back to back for ``--seconds``, checks a
sample of the ops' outputs in an untimed verify phase, prints every
metric by name with its unit and sample count plus the host facts, and
ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` reports its per-layer metrics from a separate traced run
and writes the spans as a Perfetto-loadable trace under
``perfbench/out/``.  Exit status 2, and no result line, when the
checkout holds no ``src/repro``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _load_library() -> float:
    """Import the program from this checkout's ``src/``; returns the
    import's wall seconds."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no repro package under {SRC}\n")
        sys.exit(2)
    sys.path[:0] = [SRC, HERE]
    t0 = time.perf_counter()
    import repro  # noqa: F401
    return time.perf_counter() - t0


def _reimport() -> None:
    """Import the library's own modules afresh; the modules it imports
    from other packages stay loaded.  Runs before anything else holds a
    reference into ``repro``, so the last import is the one in use."""
    for name in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]
    importlib.import_module("repro")


def _verify(w, problems: list) -> tuple[int, int]:
    """Check every kept op; returns (checks made, ops found wrong)."""
    n_checks, wrong = 0, set()
    for index, inp, out in w.sampled():
        for ok, what in w.checks(inp, out):
            n_checks += 1
            if not ok:
                wrong.add(index)
                problems.append(f"wrong: op {index}: {what}")
    return n_checks, len(wrong)


def _measure(w, seconds: float):
    """Time ``w.op`` back to back for ``seconds``.

    Returns ``name -> (calibrated, raw, samples)`` for the end-to-end
    metrics, and every calibration reading.  Each sample is calibrated by
    its own adjacent readings (:func:`calib.timed`).
    """
    from calib import timed

    samples, latencies, tail, calib = [], [], [], []
    probe = w.probe
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        try:
            units, s = timed(w.op)
        except Exception as exc:  # noqa: BLE001 — a failed op is counted, not fatal
            w.n += 1
            w.errors.append(f"{type(exc).__name__}: {exc}")
            w.items.clear()
            continue
        samples.append((units, s))
        calib.append(s.calib_ms)
        if probe is None:
            latencies.append((s.cal_s * 1e3, s.raw_s * 1e3))
        else:
            # the latency metric is the workload's own probe, timed as a
            # block right after each op
            n, p = timed(probe)
            latencies.append((p.cal_s / n * 1e3, p.raw_s / n * 1e3))
            calib.append(p.calib_ms)
        # a quote op's requests: their latencies feed the printed p99
        tail += [raw * 1e3 * s.scale for raw in w.items]
        w.items.clear()
    units = sum(u for u, _ in samples)
    out = {
        "op_p50_ms": (statistics.median(c for c, _ in latencies),
                      statistics.median(r for _, r in latencies), len(latencies)),
        "work_per_s": (units / sum(s.cal_s for _, s in samples),
                       units / sum(s.raw_s for _, s in samples), len(samples)),
    }
    if len(tail) >= 1000:
        out["quote_p99_ms"] = (statistics.quantiles(tail, n=100)[98], None, len(tail))
    return out, calib


def _median_pair(pairs: list) -> tuple[float, float]:
    return (statistics.median(c for c, _ in pairs),
            statistics.median(r for _, r in pairs))


def main(argv=None) -> int:
    args = _parse(argv)
    t_start = time.perf_counter()
    cold_import_s = _load_library()

    import numpy as np
    import scipy

    from calib import timed

    imports = []
    for _ in range(SETUP_REPEATS):
        s = timed(_reimport)[1]
        imports.append((s.cal_s, s.raw_s))

    import paths as P

    if args.workload not in P.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose one of {sorted(P.WORKLOADS)}\n")
        return 2

    def build():
        inputs = P.make_inputs(args.seed)
        w = P.WORKLOADS[args.workload](inputs)
        w.setup()
        return inputs, w

    setups = []
    for _ in range(SETUP_REPEATS):
        (inputs, w), s = timed(build)
        setups.append((s.cal_s, s.raw_s))
    w.instrument()
    setup_s = tuple(a + b for a, b in zip(_median_pair(imports), _median_pair(setups)))

    problems: list[str] = []
    if args.trace:
        import layers

        metrics, counts, trace_problems = layers.traced_run(
            w, args, os.path.join(HERE, "out")
        )
        problems += trace_problems
        units = dict(layers.UNITS)
        table = {k: (metrics[k], None, counts[k]) for k in metrics}
    else:
        table, calib = _measure(w, args.seconds)
        table["setup_s"] = (*setup_s, SETUP_REPEATS)
        # printed only: the first import, other packages included (raw)
        table["import_cold_s"] = (cold_import_s, None, 1)
        units = {"setup_s": "s", "op_p50_ms": "ms", "work_per_s": "1/s",
                 "quote_p99_ms": "ms", "import_cold_s": "s"}
    problems += [f"raised: {e}" for e in w.errors]

    n_checks, wrong = _verify(w, problems)
    loop_ms = getattr(w, "loop_ms", None)
    if args.trace and loop_ms is not None:
        # the paper's loop baseline, timed during verify
        metrics["baselines.loop_t12_ms"] = loop_ms
        table["baselines.loop_t12_ms"] = (loop_ms, None, 1)
    attempted = max(w.n, 1)
    failed = min(len(w.errors) + wrong, attempted)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"inputs={inputs.fingerprint()}")
    print(f"host: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} scipy={scipy.__version__}")
    if not args.trace:
        from calib import CALIB_REF_MS

        print(f"host.calib_ms={statistics.median(calib):.4f} (n={len(calib)}, "
              f"calibration scale {CALIB_REF_MS} ms)")
    print(f"{'metric':<34}{'value':>14}{'raw':>14}  {'unit':<7}{'n':>7}")
    for k in sorted(table):
        value, raw, n = table[k]
        raw_text = "" if raw is None else f"{raw:.6g}"
        print(f"{k:<34}{value:>14.6g}{raw_text:>14}  {units[k]:<7}{n:>7}")
    print(f"verify: ops={attempted} sampled={len(w.sampled())} checks={n_checks} "
          f"raised={len(w.errors)} wrong={wrong} "
          f"failed_frac={failed / attempted:.6g} "
          f"wall_s={time.perf_counter() - t_start:.1f}")
    for p in problems[:10]:
        print(f"problem: {p}")
    if args.trace:
        reported = metrics
    else:
        reported = {k: table[k][0] for k in ("setup_s", "op_p50_ms", "work_per_s")}
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": float(v), "unit": units[k]} for k, v in reported.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span recording around the library's public layer boundaries.

The traced run wraps public functions and methods of ``repro`` at run
time — nothing under ``src/`` is edited — so each call into a layer
becomes a span of the library's own :class:`repro.obs.spans.Tracer`.
The tracer keeps the span tree in memory and, per span name, the count,
total time and self time (span minus its children); ``repro.obs``
exports the tree as a Perfetto-loadable trace.  The end-to-end metrics
never come from a traced run.

Functions imported by name into another module are patched where they
are looked up (e.g. ``price_many`` inside ``repro.risk.engine`` and
``repro.service.service``), because patching the defining module would
not reach those call sites.
"""

from __future__ import annotations

import contextlib
import functools

from repro.obs.spans import Tracer


class Recorder:
    """A :class:`Tracer` that keeps every span (the traced run resets it
    per unit of work), plus the number of lockstep rounds driven."""

    def __init__(self):
        self.tracer = Tracer(max_children=1 << 30, max_traces=1 << 30)
        self.rounds = 0

    def call(self, name: str, fn, *args, **kwargs):
        with self.tracer.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def wrap_lockstep(self, fn, gen_name: str):
        """Wrap ``drive_lockstep``: the call becomes a ``lockstep`` span,
        each solver generator step a ``gen_name`` child span, and the
        number of lockstep rounds is counted — every live generator yields
        exactly one request per round, so a drive's rounds are the largest
        number of requests any of its generators yielded."""

        def steps(gen, counts, i):
            try:
                req = self.call(gen_name, next, gen)
            except StopIteration as stop:
                return stop.value
            while True:
                counts[i] += 1
                reply = yield req
                try:
                    req = self.call(gen_name, gen.send, reply)
                except StopIteration as stop:
                    return stop.value

        @functools.wraps(fn)
        def drive(gens, engine):
            counts = [0] * len(gens)
            proxied = [steps(g, counts, i) for i, g in enumerate(gens)]
            out = self.call("lockstep", fn, proxied, engine)
            self.rounds += max(counts, default=0)
            return out

        return drive

    def reset(self) -> None:
        self.tracer.reset()
        self.rounds = 0

    def breakdown(self) -> dict:
        """``{span name: {count, total_s, self_s}}`` since the last reset."""
        return self.tracer.phase_breakdown()


def _targets():
    """``(owner, attribute, span name)`` for every wrapped entry point."""
    from repro.core import api, bsm_solver, symmetry, tree_solver
    from repro.core.fftstencil import AdvanceEngine
    from repro.core.spectral import SpectralBackend
    from repro.market import implied
    from repro.risk import engine as risk_engine
    from repro.service import service as service_mod
    from repro.service.cache import QuoteCache

    return [
        (AdvanceEngine, "advance", "fftstencil.advance"),
        (AdvanceEngine, "advance_batch", "fftstencil.advance_batch"),
        (AdvanceEngine, "base_rows_batch", "fftstencil.base_rows_batch"),
        (api, "solve_tree_fft", "tree_solver"),
        (api, "solve_tree_fft_batch", "tree_solver"),
        (symmetry, "solve_tree_fft", "tree_solver"),
        (api, "solve_bsm_fft", "bsm_solver"),
        (api, "solve_bsm_fft_batch", "bsm_solver"),
        (tree_solver, "drive_lockstep", "tree_solver"),
        (bsm_solver, "drive_lockstep", "bsm_solver"),
        (risk_engine, "price_many", "api.price_many"),
        (risk_engine.ScenarioEngine, "price_grid", "risk.price_grid"),
        (implied, "price_american", "api.price_american"),
        (service_mod.QuoteService, "quote", "service.quote"),
        (service_mod.QuoteService, "flush", "service.flush"),
        (service_mod, "canonicalize", "service.canonicalize"),
        (service_mod, "price_many", "service.bucket_solve"),
        (QuoteCache, "get", "service.cache_get"),
        (QuoteCache, "put", "service.cache_put"),
        (SpectralBackend, "price_spec", "spectral.price_spec"),
        (SpectralBackend, "price_batch", "spectral.price_batch"),
    ]


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Wrap every target for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name in _targets():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            if attr == "drive_lockstep":
                setattr(owner, attr, recorder.wrap_lockstep(original, name))
            else:
                setattr(owner, attr, recorder.wrap(name, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

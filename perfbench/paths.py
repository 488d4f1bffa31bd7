"""The benchmark's workloads: seeded inputs, one timed op each, and the
untimed correctness checks.

Each workload times one kind of op, so each end-to-end metric reads the
same way on every workload (``op_p50_ms``: median op latency;
``work_per_s``: work completed per second).  README.md maps them back to
the paths they measure.  The library receives only the generated inputs:
nothing here looks at the seed after :func:`make_inputs`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time

import numpy as np

from repro import (
    QuoteService,
    ScenarioEngine,
    ScenarioGrid,
    implied_vol_many,
    paper_benchmark_spec,
    price_american,
    price_many,
)
from repro.core.backend import get_backend
from repro.core.fftstencil import AdvanceEngine
from repro.obs import Telemetry
from repro.options import Right
from repro.service.canonical import canonicalize

from calib import timed

T12, T14, T16 = 2**12, 2**14, 2**16
QUOTE_STEPS, GRID_STEPS, LADDER_STEPS = 1024, 256, 1024
BOOK_STRIKES = 128          # x 2 rights x 2 expiries = 512 contracts
STREAM_LEN = 1 << 15
STREAM_PATTERN_SEED = 20240302
ZIPF_S = 1.2
FAST_SHARE = 0.1
CACHE_SIZE = 256
FLUSH_EVERY = 256
QUOTE_BLOCK = 64            # quotes per timed op; 4 blocks per flush
PRIME_QUOTES = 1024         # stream prefix replayed during set-up
GRID_CELLS = 128
LADDER_STRIKES = 12
#: Jittered §5 contracts a solve workload cycles through.  Odd, so the
#: verify sample (every 2^k-th op) meets several of them.
SOLVE_SPECS = 7
#: Ops (or, on the quote stream, quotes of each tier) kept for verify.
KEEP = 4
#: Steps of the lattice solve the spectral tier is checked against: the
#: spectral tolerance is stated against the converged lattice, and a
#: lattice's own error (O(1/T), ~4e-3 at 256 steps) must stay well below it.
REF_STEPS = 2**13
#: fft vs loop price agreement at the same T (observed ~3e-13).
LOOP_RTOL = 1e-9
#: Served exact quotes against an unfolded solve.  The service prices the
#: strike-1 (and, for puts, dual-call) form: bit-exact against that folded
#: solve, and equal to the unfolded one up to rounding — measured at most
#: 4e-13 of max(price, 1% of strike) on this book at 2048 steps.
CANONICAL_RTOL = 1e-12
#: The library's implied-vol acceptance gate: |price(vol) - quote| <= 1e-8 K.
IV_RESIDUAL = 1e-8


@dataclasses.dataclass
class Inputs:
    paper: list          # jittered §5 calls
    puts: list           # jittered §5 zero-dividend puts
    book: list           # 512-contract quote book
    stream: np.ndarray   # book index per request, Zipf over a seeded ranking
    fast: np.ndarray     # request asks for tier="fast"
    head: list           # the 64 most popular contracts
    grid: list           # 128 heterogeneous American calls
    ladder: list         # 12-strike smile of dividend-paying calls

    def fingerprint(self) -> str:
        """Digest of every generated input (a different seed changes it)."""
        h = hashlib.sha256()
        for spec in self.paper + self.puts + self.book + self.grid + self.ladder:
            h.update(repr(spec).encode())
        h.update(self.stream.tobytes())
        h.update(self.fast.tobytes())
        return h.hexdigest()[:16]


def _smile(strike: float, spot: float, level: float) -> float:
    x = math.log(strike / spot)
    return level + 0.15 * x * x - 0.05 * x


def make_inputs(seed: int) -> Inputs:
    """Every workload's inputs from one seeded stream (cheap: specs only)."""
    rng = np.random.default_rng(seed)
    base = paper_benchmark_spec()

    def jitter(spec):
        return dataclasses.replace(
            spec,
            spot=spec.spot * (1.0 + rng.uniform(-0.02, 0.02)),
            volatility=spec.volatility * (1.0 + rng.uniform(-0.05, 0.05)),
        )

    paper = [jitter(base) for _ in range(SOLVE_SPECS)]
    puts = [
        dataclasses.replace(jitter(base), right=Right.PUT, dividend_yield=0.0)
        for _ in range(SOLVE_SPECS)
    ]

    spot = base.spot * (1.0 + rng.uniform(-0.02, 0.02))
    level = base.volatility * (1.0 + rng.uniform(-0.05, 0.05))
    book = [
        dataclasses.replace(
            base, spot=spot, strike=float(k), right=right, expiry_days=days,
            volatility=_smile(float(k), spot, level),
        )
        for days in (126.0, 252.0)
        for right in (Right.CALL, Right.PUT)
        for k in np.round(spot * np.linspace(0.7, 1.3, BOOK_STRIKES), 2)
    ]
    # The request pattern (which contract holds each popularity rank, the
    # rank sequence, the tier flags) comes from one fixed generator: every
    # seed sees the same hit/miss pattern and differs only in the market
    # (spot, smile level) the book is priced in.
    pattern = np.random.default_rng(STREAM_PATTERN_SEED)
    ranking = pattern.permutation(len(book))
    weights = 1.0 / np.arange(1, len(book) + 1) ** ZIPF_S
    stream = ranking[pattern.choice(len(book), STREAM_LEN, p=weights / weights.sum())]
    fast = pattern.random(STREAM_LEN) < FAST_SHARE

    grid = [
        dataclasses.replace(
            base,
            spot=base.spot * rng.uniform(0.85, 1.15),
            volatility=rng.uniform(0.15, 0.35),
            rate=rng.uniform(0.001, 0.04),
        )
        for _ in range(GRID_CELLS)
    ]

    lspot = base.spot * (1.0 + rng.uniform(-0.02, 0.02))
    llevel = 0.25 * (1.0 + rng.uniform(-0.05, 0.05))
    ladder = [
        dataclasses.replace(
            base, spot=lspot, strike=float(k), dividend_yield=0.03,
            volatility=_smile(float(k), lspot, llevel),
        )
        for k in np.round(lspot * np.linspace(0.8, 1.25, LADDER_STRIKES), 2)
    ]
    head = [book[i] for i in ranking[:64]]
    return Inputs(paper, puts, book, stream, fast, head, grid, ladder)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _tol_rel(a: float, b: float, strike: float) -> float:
    """Relative error on the spectral backend's own scale,
    ``max(price, 1% of strike)``."""
    return abs(a - b) / max(abs(b), 0.01 * strike)


class SpreadSample:
    """A bounded sample spread evenly over a stream of unknown length.

    Every ``stride``-th item offered is kept; when more than ``KEEP`` are
    kept, every other one is dropped and the stride doubles.  At the end
    the sample covers the whole stream, first item included."""

    def __init__(self):
        self.items: list = []
        self.stride = 1
        self.offered = 0

    def offer(self, item) -> None:
        if self.offered % self.stride == 0:
            self.items.append(item)
            if len(self.items) > KEEP:
                del self.items[1::2]
                self.stride *= 2
        self.offered += 1


class Workload:
    """One kind of timed op.  ``op()`` runs it once and returns the work
    units it completed.  A sample of the ops, spread over the run, is kept
    as ``(op index, input, output)`` for :meth:`checks`."""

    name = ""
    #: a block of repeated work timed after each op, when the op itself
    #: is not what ``op_p50_ms`` measures
    probe = None

    def __init__(self, inputs: Inputs):
        self.inp = inputs
        self.n = 0               # ops run so far
        self.kept = SpreadSample()
        #: per-item latencies (s) when an op is several user requests
        self.items: list = []
        #: ops that raised
        self.errors: list[str] = []

    def setup(self) -> None:
        """Build the op's state and warm it up untimed."""
        self.warm()
        self.n = 0
        self.kept = SpreadSample()
        self.items.clear()

    def instrument(self) -> None:
        """Build what the benchmark needs to take its own measurements;
        not part of the set-up a user would see."""

    def warm(self) -> None:
        self.op()

    def op(self) -> int:
        raise NotImplementedError

    def sampled(self) -> list:
        """The kept ``(op index, input, output)`` triples."""
        return self.kept.items

    def checks(self, inp, out):
        """Yield ``(ok, what)`` for one kept op."""
        raise NotImplementedError


class Solve(Workload):
    """``price_american`` on the paper's §5 contract (seeded spot/vol
    jitter), fresh engine per solve as a library user gets by default."""

    def __init__(self, inputs, name, steps, model):
        super().__init__(inputs)
        self.name, self.steps, self.model = name, steps, model
        self.specs = inputs.puts if model == "bsm-fd" else inputs.paper
        self.engine: AdvanceEngine | None = None
        self.loop_ms: float | None = None
        self.refs: dict = {}     # spec index -> reference price

    def op(self) -> int:
        i = self.n % len(self.specs)
        self.engine = AdvanceEngine()
        res = self.last = price_american(
            self.specs[i], self.steps, model=self.model, engine=self.engine
        )
        self.kept.offer((self.n, i, res.price))
        self.n += 1
        return 1

    def warm(self) -> None:
        price_american(self.specs[0], min(self.steps, T14), model=self.model)

    def _reference(self, i: int) -> float:
        if i not in self.refs:
            spec = self.specs[i]
            if self.steps > T14:
                # the loop is Θ(T²): past 2^14 the spectral tier is the oracle
                ref = get_backend("spectral").price_spec(spec, self.steps,
                                                         model=self.model)
            else:
                ref, s = timed(lambda: price_american(
                    spec, self.steps, model=self.model, method="loop"))
                if (self.loop_ms is None and self.steps == T12
                        and self.model == "binomial"):
                    #: the paper's loop baseline at this size (Figure 5)
                    self.loop_ms = s.cal_s * 1e3
            self.refs[i] = ref.price
        return self.refs[i]

    def checks(self, i, price):
        spec, ref = self.specs[i], self._reference(i)
        if self.steps > T14:
            tol = get_backend("spectral").tolerance
            yield (_tol_rel(price, ref, spec.strike) <= tol,
                   f"{self.name}: lattice vs spectral within its tolerance")
        else:
            yield (_rel(price, ref) <= LOOP_RTOL,
                   f"{self.name}: fft vs loop at the same T")


class QuoteStream(Workload):
    """One closed-loop client: the next quote is sent when the last one
    returns.  Zipf(1.2) over a 512-contract book, 10% ``tier="fast"``,
    ``flush()`` every 256 quotes; ``Telemetry()`` on, as deployed.

    Served quotes are sampled per tier across the run.  The hit path is
    probed on a twin service with its own cache, so the stream's cache
    sees the stream's requests only."""

    name = "quote_stream"

    def setup(self) -> None:
        inp = self.inp
        self.service = QuoteService(cache_size=CACHE_SIZE, telemetry=Telemetry())
        # the stream's first requests, coalesced, so timing starts warm
        for i in range(PRIME_QUOTES):
            spec = inp.book[inp.stream[i]]
            if inp.fast[i]:
                self.service.quote(spec, QUOTE_STEPS, tier="fast")
            else:
                self.service.submit(spec, QUOTE_STEPS)
        self.service.flush()
        self.pos = PRIME_QUOTES
        super().setup()
        self.by_tier = {"exact": SpreadSample(), "fast": SpreadSample()}

    def warm(self) -> None:
        """The replayed prefix is the warm-up."""

    def instrument(self) -> None:
        # the twin holds the 64 most popular contracts, all resident
        self.twin = QuoteService(cache_size=CACHE_SIZE, telemetry=Telemetry())
        for spec in self.inp.head:
            self.twin.submit(spec, QUOTE_STEPS)
        self.twin.flush()
        self.probe()

    def op(self) -> int:
        inp, svc, lat = self.inp, self.service, self.items
        for _ in range(QUOTE_BLOCK):
            i = self.pos % STREAM_LEN
            self.pos += 1
            spec = inp.book[inp.stream[i]]
            tier = "fast" if inp.fast[i] else "exact"
            t0 = time.perf_counter()
            out = svc.quote(spec, QUOTE_STEPS, tier=tier)
            lat.append(time.perf_counter() - t0)
            self.by_tier[tier].offer((self.n, (spec, tier), out))
            if self.pos % FLUSH_EVERY == 0:
                svc.flush()
        self.n += 1
        return QUOTE_BLOCK

    def probe(self) -> int:
        """The hit path: four passes over the twin's 64 resident contracts,
        timed as a block (a hit is too short to time alone)."""
        for _ in range(4):
            for spec in self.inp.head:
                self.twin.quote(spec, QUOTE_STEPS)
        return 4 * len(self.inp.head)

    def sampled(self) -> list:
        return self.by_tier["exact"].items + self.by_tier["fast"].items

    def checks(self, inp, out):
        spec, tier = inp
        if tier == "fast":
            ref = price_american(spec, REF_STEPS).price
            yield (_tol_rel(out.price, ref, spec.strike) <= out.meta["tolerance"],
                   "fast quote within its stated tolerance of a 2^13-step solve")
            return
        req = canonicalize(spec, QUOTE_STEPS)
        folded = price_american(req.spec, QUOTE_STEPS).price * req.scale
        yield out.price == folded, "exact quote bit-identical to the folded solve"
        direct = price_american(spec, QUOTE_STEPS).price
        yield (_tol_rel(out.price, direct, spec.strike) <= CANONICAL_RTOL,
               "exact quote vs direct solve")


class Grid(Workload):
    """A 128-cell heterogeneous American-call grid (own spot, vol and rate
    per cell) at 256 steps, on one ``ScenarioEngine`` configuration."""

    def __init__(self, inputs, name, backend, pricer=None):
        super().__init__(inputs)
        self.name = name
        workers = 2 if backend == "process" else 1
        self.engine = ScenarioEngine(workers=workers, backend=backend)
        self.pricer = pricer
        self.grid = ScenarioGrid.explicit(inputs.grid)
        if pricer is not None:
            self.grid = self.grid.with_backends(pricer)
        self.refs = None

    def warm(self) -> None:
        # The spectral backend caches one plan per (rate, vol, expiry): warm
        # them all, as a risk system re-pricing its grid would have them.
        # Lattice cells share no state across ops, so 32 cells warm them.
        cells = self.grid.cells if self.pricer else self.grid.cells[:32]
        self.engine.price_grid(ScenarioGrid(cells), GRID_STEPS)

    def op(self) -> int:
        res = self.last = self.engine.price_grid(self.grid, GRID_STEPS)
        self.kept.offer((self.n, None, res.prices))
        self.n += 1
        return GRID_CELLS

    def _references(self):
        if self.refs is None:
            if self.pricer == "spectral":
                # at 256 steps the lattice's own error (~4e-3 on this grid)
                # exceeds the spectral tolerance
                self.refs = {i: price_american(self.inp.grid[i], REF_STEPS).price
                             for i in (3, 40, 80, 120)}
            else:
                pooled = ScenarioEngine(workers=2, backend="process")
                self.refs = (
                    pooled.price_grid(self.grid, GRID_STEPS).prices,
                    {i: price_american(self.inp.grid[i], GRID_STEPS).price
                     for i in (0, 63, 127)},
                )
        return self.refs

    def checks(self, _, prices):
        if self.pricer == "spectral":
            tol = get_backend("spectral").tolerance
            for i, ref in self._references().items():
                yield (_tol_rel(prices[i], ref, self.inp.grid[i].strike) <= tol,
                       f"spectral grid cell {i} within tolerance")
            return
        pooled, singles = self._references()
        yield (np.array_equal(prices, pooled),
               "grid on a 2-process pool bit-identical to the serial grid")
        for i, one in singles.items():
            yield one == prices[i], f"grid cell {i} bit-identical to a single solve"


class Ladder(Workload):
    """``implied_vol_many`` on a 12-strike smile of dividend-paying
    American calls at 1024 steps, fresh ``AdvanceEngine`` per ladder.
    The quotes are priced at set-up from the seeded smile."""

    name = "iv_ladder"

    def setup(self) -> None:
        self.quotes = [r.price for r in price_many(self.inp.ladder, LADDER_STEPS)]
        self.engine: AdvanceEngine | None = None
        self.repriced: dict = {}   # (strike index, vol) -> price
        super().setup()

    def warm(self) -> None:
        implied_vol_many(self.inp.ladder[:4], self.quotes[:4], LADDER_STEPS)

    def op(self) -> int:
        self.engine = AdvanceEngine()
        rep = self.last = implied_vol_many(
            self.inp.ladder, self.quotes, LADDER_STEPS, engine=self.engine
        )
        self.kept.offer((self.n, None, rep))
        self.n += 1
        return LADDER_STRIKES

    def checks(self, _, rep):
        for i, (spec, quote, r) in enumerate(
                zip(self.inp.ladder, self.quotes, rep.results)):
            if (i, r.vol) not in self.repriced:
                self.repriced[i, r.vol] = price_american(
                    dataclasses.replace(spec, volatility=r.vol), LADDER_STEPS
                ).price
            yield (abs(self.repriced[i, r.vol] - quote) <= IV_RESIDUAL * spec.strike,
                   f"implied vol at strike {spec.strike} reprices its quote")


#: workload name -> factory; BENCHMARK.json says why each is here
WORKLOADS = {
    "solve_t12": lambda i: Solve(i, "solve_t12", T12, "binomial"),
    "solve_t16": lambda i: Solve(i, "solve_t16", T16, "binomial"),
    "bsm_t14": lambda i: Solve(i, "bsm_t14", T14, "bsm-fd"),
    "quote_stream": QuoteStream,
    "grid_lattice": lambda i: Grid(i, "grid_lattice", "serial"),
    "grid_spectral": lambda i: Grid(i, "grid_spectral", "serial", "spectral"),
    "iv_ladder": Ladder,
}

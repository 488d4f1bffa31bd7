"""Base-row lockstep protocol: ``BaseRowRequest`` batching vs serial rows.

``tests/core/test_solve_batch.py`` pins the *price-level* batch-vs-serial
contract; this file pins the **base-row half of the protocol** introduced
with :meth:`~repro.core.fftstencil.AdvanceEngine.base_rows_batch`
(docs/DESIGN.md §7.6):

* lockstep solves whose naive descents are served row-by-row through the
  batched engine call are **bit-identical** to their serial twins —
  prices, divider sequences, recursion statistics (hypothesis sweeps over
  mixed vol/rate/strike/right batches, trees and FD grids alike);
* the stacked multiply-accumulate + green gather + divider scan agrees
  bitwise with the one-row path for every request shape: ragged lengths,
  stride-1 and stride-2 green slices, extension columns, empty taps,
  ``keep="max"``/``scan=False`` rows, empty windows;
* the consolidation counters (``base_batch_calls``/``base_batch_rows``/
  ``base_block_hits``/``base_block_misses``) measure what the docstrings
  promise, pinned exactly for synchronized batches.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bermudan import (
    price_tree_bermudan_fft,
    price_tree_bermudan_fft_batch,
)
from repro.core.boundary import scan_prefix_boundary
from repro.core.bsm_solver import solve_bsm_fft, solve_bsm_fft_batch
from repro.core.fftstencil import (
    MAC_STACK_MAX_KERNEL,
    AdvanceEngine,
)
from repro.core.lockstep import BaseRowRequest
from repro.core.tree_solver import solve_tree_fft, solve_tree_fft_batch
from repro.options.contract import OptionSpec, Right, paper_benchmark_spec
from repro.options.params import BinomialParams, BSMGridParams, TrinomialParams

SPEC = paper_benchmark_spec()


def _strike(k):
    return dataclasses.replace(SPEC, strike=k)


def _call_spec(strike, vol, rate, dividend):
    return OptionSpec(
        spot=100.0, strike=strike, rate=rate, volatility=vol,
        dividend_yield=dividend, expiry_days=252.0, right=Right.CALL,
    )


tree_param_strategy = st.builds(
    _call_spec,
    strike=st.floats(70.0, 140.0),
    vol=st.floats(0.12, 0.5),
    rate=st.floats(0.0, 0.08),
    dividend=st.floats(0.005, 0.06),
)


class TestLockstepBitIdentity:
    """Batched base rows never change a solve: strict ``==``, no tolerance."""

    @settings(max_examples=15, deadline=None)
    @given(
        specs=st.lists(tree_param_strategy, min_size=1, max_size=5),
        model=st.sampled_from([BinomialParams, TrinomialParams]),
    )
    def test_tree_batches_bit_identical(self, specs, model):
        plist = [model.from_spec(s, 48) for s in specs]
        engine = AdvanceEngine()
        batch = solve_tree_fft_batch(plist, engine=engine)
        for p, b in zip(plist, batch):
            s = solve_tree_fft(p)
            assert b.price == s.price  # bitwise, not approx
            assert b.stats.base_rows == s.stats.base_rows
            assert b.meta["batched"] is True

    @settings(max_examples=10, deadline=None)
    @given(
        vols=st.lists(st.floats(0.12, 0.5), min_size=1, max_size=4),
        rate=st.floats(0.005, 0.08),
    )
    def test_fd_batches_bit_identical(self, vols, rate):
        specs = [
            dataclasses.replace(
                SPEC, right=Right.PUT, dividend_yield=0.0,
                volatility=v, rate=rate,
            )
            for v in vols
        ]
        plist = [BSMGridParams.from_spec(s, 48) for s in specs]
        batch = solve_bsm_fft_batch(plist)
        for p, b in zip(plist, batch):
            s = solve_bsm_fft(p)
            assert b.price == s.price
            assert b.meta["batched"] is True

    def test_mixed_tree_and_fd_rows_share_one_engine(self):
        """Tree (stride-2) and FD (stride-1) rows batched through the same
        engine in one session leave both bit-identical to serial."""
        engine = AdvanceEngine()
        tp = [BinomialParams.from_spec(_call_spec(k, 0.3, 0.04, 0.02), 48)
              for k in (90.0, 110.0)]
        fp = [BSMGridParams.from_spec(
            dataclasses.replace(
                SPEC, right=Right.PUT, dividend_yield=0.0, volatility=v
            ), 48)
            for v in (0.2, 0.35)]
        tb = solve_tree_fft_batch(tp, engine=engine)
        fb = solve_bsm_fft_batch(fp, engine=engine)
        assert [r.price for r in tb] == [solve_tree_fft(p).price for p in tp]
        assert [r.price for r in fb] == [solve_bsm_fft(p).price for p in fp]


class TestDividerSequences:
    """The batched divider scan reproduces the serial boundary exactly."""

    def test_paper_spec_boundary_pins(self):
        p = BinomialParams.from_spec(SPEC, 64)
        serial = solve_tree_fft(p, record_boundary=True)
        batch, other = solve_tree_fft_batch(
            [p, BinomialParams.from_spec(_strike(120.0), 64)],
            record_boundary=True,
        )
        assert batch.boundary.points == serial.boundary.points
        # literal pins for the paper benchmark contract at T=64: the naive
        # base fills the all-red ramp row-by-row and the deep rows settle
        # on the lattice's exercise column
        pts = serial.boundary.points
        assert {r: pts[r] for r in (0, 1, 2, 5)} == {0: 0, 1: 1, 2: 2, 5: 5}
        assert pts[63] == 32 and pts[64] == 32
        assert serial.price == pytest.approx(
            8.361549456522944, rel=1e-12, abs=0.0
        )
        assert other.boundary.points != serial.boundary.points

    @pytest.mark.parametrize("strikes", [(85.0, 100.0, 130.0)])
    def test_heterogeneous_boundaries_batch_equals_serial(self, strikes):
        plist = [BinomialParams.from_spec(_strike(k), 96)
                 for k in strikes]
        batch = solve_tree_fft_batch(plist, record_boundary=True)
        for p, b in zip(plist, batch):
            s = solve_tree_fft(p, record_boundary=True)
            assert b.boundary.points == s.boundary.points

    def test_divider_exit_rows_in_lockstep(self):
        """A deep-ITM dividend call exercises immediately (the naive strip
        hits the divider-exit path); batching it next to ordinary
        contracts changes nothing."""
        deep = _call_spec(60.0, 0.15, 0.01, 0.08)
        plain = _call_spec(100.0, 0.3, 0.04, 0.02)
        plist = [BinomialParams.from_spec(s, 64) for s in (deep, plain)]
        batch = solve_tree_fft_batch(plist)
        for p, b in zip(plist, batch):
            s = solve_tree_fft(p)
            assert b.price == s.price
            assert b.stats.base_rows == s.stats.base_rows
        assert batch[0].price == pytest.approx(
            deep.spot - deep.strike, rel=1e-10
        )


def _serve_rows_individually(engine, reqs):
    outs, divs = [], []
    for r in reqs:
        vs, ds, _ = engine.base_rows_batch([r])
        outs.append(vs[0])
        divs.append(ds[0])
    return outs, divs


def _req(values, taps, table, g_start, g_stride=1, e_len=0, e_start=0,
         keep="prefix", scan=True, green=None):
    return BaseRowRequest(
        values=np.asarray(values, dtype=np.float64),
        taps=np.asarray(taps, dtype=np.float64),
        table=table, g_start=g_start, g_stride=g_stride,
        e_start=e_start, e_len=e_len, green=green, keep=keep, scan=scan,
    )


class TestBaseRowsBatchUnit:
    """Direct engine calls: stacked path == one-row path, bit for bit."""

    def test_empty_window_row(self):
        # n = len(values) - (nt - 1) = 0: nothing to keep, divider -1
        r = _req([5.0], [0.5, 0.5], None, 0, green=np.array([]))
        outs, divs, _ = AdvanceEngine().base_rows_batch([r])
        assert outs[0].shape == (0,) and outs[0].dtype == np.float64
        assert divs[0] == -1

    def test_empty_taps_is_identity_max(self):
        # nt=0 (a Bermudan exercise date): pure max against green
        v = np.array([3.0, 1.0, 4.0, 1.0])
        g = np.array([2.0, 2.0, 2.0, 2.0])
        r = _req(v, [], None, 0, keep="max", scan=True, green=g)
        outs, divs, _ = AdvanceEngine().base_rows_batch([r])
        np.testing.assert_array_equal(outs[0], np.maximum(v, g))
        assert divs[0] == scan_prefix_boundary(g >= v)

    def test_scan_false_skips_divider(self):
        v = np.array([1.0, 2.0, 3.0])
        g = np.array([9.0, 9.0, 9.0])
        r = _req(v, [], None, 0, keep="max", scan=False, green=g)
        outs, divs, _ = AdvanceEngine().base_rows_batch([r])
        assert divs[0] == -1
        np.testing.assert_array_equal(outs[0], g)

    def test_prefix_row_matches_manual_numpy(self):
        rng = np.random.default_rng(3)
        table = rng.uniform(0.0, 50.0, size=64)
        v = rng.uniform(0.0, 50.0, size=12)
        taps = np.array([0.45, 0.55])
        r = _req(v, taps, table, g_start=10, g_stride=2)
        outs, divs, _ = AdvanceEngine().base_rows_batch([r])
        cont = np.correlate(v, taps, mode="valid")
        grn = table[10 : 10 + 2 * cont.shape[0] : 2]
        d = scan_prefix_boundary(cont >= grn)
        assert divs[0] == d
        np.testing.assert_array_equal(outs[0], cont[: d + 1])

    def test_extension_columns_match_manual_numpy(self):
        rng = np.random.default_rng(4)
        table = rng.uniform(0.0, 50.0, size=64)
        v = rng.uniform(0.0, 50.0, size=8)
        taps = np.array([0.3, 0.3, 0.4])
        e_start, e_len = 40, 3
        r = _req(v, taps, table, g_start=2, g_stride=2,
                 e_start=e_start, e_len=e_len)
        outs, divs, _ = AdvanceEngine().base_rows_batch([r])
        x = np.concatenate([v, table[e_start : e_start + 2 * e_len : 2]])
        cont = np.correlate(x, taps, mode="valid")
        grn = table[2 : 2 + 2 * cont.shape[0] : 2]
        d = scan_prefix_boundary(cont >= grn)
        assert divs[0] == d
        np.testing.assert_array_equal(outs[0], cont[: d + 1])

    def test_all_red_and_all_green_rows(self):
        v = np.array([10.0, 10.0, 10.0, 10.0])
        taps = np.array([0.5, 0.5])
        low = np.zeros(3)
        high = np.full(3, 99.0)
        r_red = _req(v, taps, None, 0, green=low)
        r_green = _req(v, taps, None, 0, green=high)
        outs, divs, _ = AdvanceEngine().base_rows_batch([r_red, r_green])
        assert divs[0] == 2 and outs[0].shape == (3,)  # whole row red
        assert divs[1] == -1 and outs[1].shape == (0,)  # divider before row

    def test_stacked_equals_one_row_path_ragged(self):
        """G>1 super-grouped serve == G separate G==1 serves, bitwise —
        ragged lengths across two length buckets, shared stride."""
        rng = np.random.default_rng(7)
        table = rng.uniform(0.0, 80.0, size=256)
        taps = np.array([0.48, 0.52])
        lens = [4, 9, 17, 33]  # spans >1 bit_length bucket
        def build():
            return [
                _req(rng.uniform(0.0, 80.0, size=L), taps, table,
                     g_start=2 * i, g_stride=2)
                for i, L in enumerate(lens)
            ]
        e1 = AdvanceEngine()
        outs_one, divs_one = _serve_rows_individually(e1, build())
        rng = np.random.default_rng(7)  # replay the same windows
        table = rng.uniform(0.0, 80.0, size=256)
        e2 = AdvanceEngine()
        outs_st, divs_st, _ = e2.base_rows_batch(build())
        assert divs_st == divs_one
        for a, b in zip(outs_st, outs_one):
            np.testing.assert_array_equal(a, b)

    def test_mixed_kinds_group_independently(self):
        """One call mixing prefix/stride-2, max/stride-1 and empty-taps
        rows groups by kcode and still matches per-row serves."""
        rng = np.random.default_rng(11)
        table = rng.uniform(0.0, 60.0, size=128)
        reqs = [
            _req(rng.uniform(0.0, 60.0, size=10), [0.45, 0.55], table,
                 g_start=4, g_stride=2),
            _req(rng.uniform(0.0, 60.0, size=7), [0.2, 0.5, 0.3], table,
                 g_start=1, g_stride=1, keep="max"),
            _req(rng.uniform(0.0, 60.0, size=5), [], None, 0,
                 keep="max", scan=False,
                 green=rng.uniform(0.0, 60.0, size=5)),
        ]
        ref_outs, ref_divs = _serve_rows_individually(AdvanceEngine(), reqs)
        outs, divs, _ = AdvanceEngine().base_rows_batch(reqs)
        assert divs == ref_divs
        for a, b in zip(outs, ref_outs):
            np.testing.assert_array_equal(a, b)

    def test_empty_batch(self):
        outs, divs, rec = AdvanceEngine().base_rows_batch([])
        assert outs == [] and divs == []


class TestAdvanceBatchMacBoundary:
    """advance_batch's stacked-MAC cutoff: both sides of
    ``MAC_STACK_MAX_KERNEL`` agree bitwise with per-row advances."""

    @pytest.mark.parametrize(
        "h", [MAC_STACK_MAX_KERNEL - 1, MAC_STACK_MAX_KERNEL]
    )
    def test_direct_group_both_sides_of_cutoff(self, h):
        # binomial taps (q=1): kernel_len = h + 1, so h=10 -> 11 (stacked
        # MAC) and h=11 -> 12 (per-row correlate fallback)
        rng = np.random.default_rng(h)
        taps = (0.47, 0.53)
        xs = [rng.uniform(0.0, 90.0, size=L) for L in (20, 25, 31)]
        engine = AdvanceEngine()
        ys, _ = engine.advance_batch(
            [np.asarray(x) for x in xs], [(taps, h)] * 3
        )
        ref = AdvanceEngine()
        for x, y in zip(xs, ys):
            y1, _ = ref.advance(np.asarray(x), taps, h)
            np.testing.assert_array_equal(y, y1)


class TestCounters:
    """The consolidation counters measure what the bench gates rely on."""

    def test_synchronized_batch_rows_per_call_is_exact(self):
        """B identical lattices stay live together: every base round
        serves exactly B rows, and each solver's table registers once."""
        B = 8
        plist = [BinomialParams.from_spec(SPEC, 64) for _ in range(B)]
        engine = AdvanceEngine()
        before = engine.cache_info()
        results = solve_tree_fft_batch(plist, engine=engine)
        after = engine.cache_info()
        calls = after["base_batch_calls"] - before["base_batch_calls"]
        rows = after["base_batch_rows"] - before["base_batch_rows"]
        misses = after["base_block_misses"] - before["base_block_misses"]
        assert calls > 0
        assert rows == B * calls  # perfect lockstep: B rows every round
        assert misses == B  # one green table per solver, registered once
        assert after["base_block_hits"] > before["base_block_hits"]
        assert rows == sum(r.stats.base_batch_rows for r in results)

    def test_engine_delta_carries_base_row_counters(self):
        plist = [BinomialParams.from_spec(_strike(k), 48)
                 for k in (90.0, 100.0, 110.0)]
        results = solve_tree_fft_batch(plist)
        delta = results[0].meta["engine"]
        for key in ("base_batch_calls", "base_batch_rows",
                    "base_block_hits", "base_block_misses"):
            assert key in delta
        assert delta["base_batch_rows"] > 0
        # consolidation: strictly fewer engine calls than rows served
        assert delta["base_batch_calls"] < delta["base_batch_rows"]

    def test_serial_path_never_counts_batch_rows(self):
        r = solve_tree_fft(BinomialParams.from_spec(SPEC, 48))
        assert r.stats.base_batch_rows == 0
        assert r.stats.base_rows > 0


class TestBermudanBatch:
    def test_shared_schedule_bit_identical(self):
        plist = [BinomialParams.from_spec(_strike(k), 64)
                 for k in (90.0, 100.0, 115.0)]
        schedule = (16, 32, 48)
        batch = price_tree_bermudan_fft_batch(plist, schedule)
        for p, b in zip(plist, batch):
            s = price_tree_bermudan_fft(p, schedule)
            assert b.price == s.price
            assert b.meta["batched"] is True

    def test_per_contract_schedules_bit_identical(self):
        plist = [BinomialParams.from_spec(_strike(k), 64)
                 for k in (95.0, 110.0)]
        schedules = [(8, 24), (16, 32, 48)]
        batch = price_tree_bermudan_fft_batch(plist, schedules)
        for p, sched, b in zip(plist, schedules, batch):
            assert b.price == price_tree_bermudan_fft(p, sched).price

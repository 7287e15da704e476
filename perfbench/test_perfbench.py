"""Tests of the benchmark's own code.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import evalcheck, gen  # noqa: E402
from perfbench.spans import by_site, covered, p50, quantile, self_times, tail  # noqa: E402
from perfbench.steal import StealClock  # noqa: E402


# -- independent checker ------------------------------------------------------


def test_full_space_variables_match_minterm_bits():
    space = evalcheck.Space(5)
    for var in range(5):
        for minterm in range(32):
            assert (space.var[var] >> minterm) & 1 == (minterm >> (4 - var)) & 1


def test_sampled_space_agrees_with_full_space():
    full = evalcheck.Space(10)
    minterms = [random.Random(3).getrandbits(10) for _ in range(200)]
    sample = evalcheck.Space(10, minterms)
    cover = [[0b101, 0b10, [[3, 7, 1]]], [0b1000000, 0, []]]
    whole, part = full.cover(cover), sample.cover(cover)
    for k, minterm in enumerate(minterms):
        assert (part >> k) & 1 == (whole >> minterm) & 1


def test_xor_factor_recomposition():
    # f = (x0 ^ x1) & x2 = g AND h with g = x2 & (x0 ^ x1), h = 1.
    space = evalcheck.Space(3)
    f = space.cover([[0b100, 0, [[0, 1, 1]]]])
    g = [[0b100, 0, [[0, 1, 1]]]]
    assert evalcheck.recomposition_errors(space, f, space.ones, "AND", g, [[0, 0, []]]) == 0
    xnor = [[0b100, 0, [[0, 1, 0]]]]
    assert evalcheck.recomposition_errors(space, f, space.ones, "AND", xnor, [[0, 0, []]]) > 0


def test_dont_cares_are_ignored():
    space = evalcheck.Space(2)
    on = space.cover([[0b11, 0]])
    care = space.ones & ~space.cover([[0b01, 0b10]])
    # g = x0 differs from f = x0 & x1 only on the don't-care minterm x0 & ~x1.
    assert evalcheck.recomposition_errors(space, on, care, "AND", [[0b1, 0]], [[0, 0]]) == 0
    assert evalcheck.recomposition_errors(space, on, space.ones, "AND", [[0b1, 0]], [[0, 0]]) == 1


def _program_decomposition():
    from repro.engine import wire
    from repro.engine.decomposer import Decomposer

    items, _ = gen.make_stream(5, 2)
    item = items[0]
    space = evalcheck.Space(item.n_vars)
    on = space.cover(item.on_cubes)
    dc = space.cover(item.dc_cubes) & ~on
    from repro.bdd.manager import BDD
    from repro.boolfunc.convert import truthtable_to_function
    from repro.boolfunc.isf import ISF
    from repro.boolfunc.truthtable import TruthTable

    mgr = BDD([f"x{i + 1}" for i in range(item.n_vars)])
    isf = ISF(
        truthtable_to_function(mgr, TruthTable(item.n_vars, on)),
        truthtable_to_function(mgr, TruthTable(item.n_vars, dc)),
    )
    result = Decomposer(operators=["AND", "NOT_IMPLIES"]).decompose(isf, "auto")
    payload = wire.result_to_payload(result)
    return space, on, space.ones & ~dc, payload


def test_checker_accepts_program_output_and_catches_corrupted_cover():
    space, on, care, payload = _program_decomposition()
    g = evalcheck.cover_triples(payload["g_cover"])
    h = evalcheck.cover_triples(payload["h_cover"])
    assert evalcheck.recomposition_errors(space, on, care, payload["op"], g, h) == 0

    # Drop one pseudoproduct of h, then flip one bound literal of g.
    assert evalcheck.recomposition_errors(space, on, care, payload["op"], g, h[1:]) > 0
    pos, neg, xors = g[0]
    bound = pos | neg
    bit = bound & -bound
    flipped = [[pos ^ bit, neg ^ bit, xors]] + g[1:]
    assert evalcheck.recomposition_errors(space, on, care, payload["op"], flipped, h) > 0


def test_unknown_operator_is_rejected():
    space = evalcheck.Space(2)
    with pytest.raises(ValueError):
        evalcheck.recomposition_errors(space, 0, space.ones, "MAJ", [], [])


# -- generator ------------------------------------------------------------------


def test_stream_is_deterministic_per_seed():
    assert gen.make_stream(7, 120) == gen.make_stream(7, 120)
    assert gen.make_stream(7, 120) != gen.make_stream(8, 120)


def test_stream_composition_is_fixed_by_length():
    for seed in (1, 2, 3):
        items, order = gen.make_stream(seed, 100)
        assert len(order) == 100
        assert len(items) == 50 == len(set(order))
        assert all(gen.MIN_VARS <= item.n_vars <= gen.MAX_VARS for item in items)
        # Every item is sent first as fresh: no repeat precedes its item.
        seen = set()
        for item in order:
            assert item in seen or item == len(seen)
            seen.add(item)


def test_first_round_uses_every_template_once():
    items, _ = gen.make_stream(9, 2 * gen.TEMPLATE_ROUND)
    arities = [item.n_vars for item in items[: gen.TEMPLATE_ROUND]]
    for n_vars in range(gen.MIN_VARS, gen.MAX_VARS + 1):
        assert arities.count(n_vars) == gen.TEMPLATES_PER_ARITY


def test_variants_keep_template_shape():
    template = gen.templates()[12][0]
    variant = gen.variant(template, random.Random(4))
    assert len(variant.on_cubes) == len(template.on_cubes)
    literals = lambda cubes: sorted((p | n).bit_count() for p, n in cubes)  # noqa: E731
    assert literals(variant.on_cubes) == literals(template.on_cubes)


def test_whole_rounds_send_the_same_functions_under_every_seed():
    length = gen.whole_rounds(250)
    assert length == 2 * 2 * gen.TEMPLATE_ROUND
    assert gen.whole_rounds(10) == 2 * gen.TEMPLATE_ROUND
    streams = [gen.make_stream(seed, length) for seed in (1, 2)]
    (items_1, order_1), (items_2, order_2) = streams
    assert order_1 != order_2
    assert items_1 != items_2  # same functions, in another order
    assert sorted(items_1, key=repr) == sorted(items_2, key=repr)


def test_request_digest_is_reproducible():
    from perfbench.served import build_requests

    def digest(seed):
        _, order, _, params = build_requests(seed, 12)
        return gen.stream_digest([params[i] for i in order])

    assert digest(3) == digest(3)
    assert digest(3) != digest(4)


# -- self-time arithmetic -----------------------------------------------------------


def _span(span_id, parent, t0, t1, site=None):
    return {"span_id": span_id, "parent_id": parent, "t0": t0, "t1": t1, "site": site or span_id}


def test_self_time_of_nested_spans():
    spans = [_span("a", None, 0, 10), _span("b", "a", 1, 4), _span("c", "b", 2, 3)]
    assert self_times(spans) == {"a": 7, "b": 2, "c": 1}


def test_self_time_of_overlapping_siblings():
    # Parallel children (two pool workers) are merged, not summed.
    spans = [_span("a", None, 0, 10), _span("b", "a", 1, 5), _span("c", "a", 3, 8)]
    assert self_times(spans)["a"] == 3


def test_self_time_clips_children_to_parent():
    spans = [_span("a", None, 0, 10), _span("b", "a", 8, 12), _span("c", "a", -2, 1)]
    assert self_times(spans)["a"] == 7
    assert covered([(0, 1), (5, 6)], 0.5, 5.5) == 1.0


def test_by_site_sums_calls_totals_and_self():
    spans = [
        _span("r", None, 0, 10, "row"),
        _span("s1", "r", 0, 2, "spp"),
        _span("s2", "r", 3, 4, "spp"),
    ]
    sites = by_site(spans)
    assert sites["spp"] == {"calls": 2, "total_s": 3, "self_s": 3}
    assert sites["row"]["self_s"] == 7


def test_tail_leaves_ten_samples_beyond():
    value, percentile, n = tail(range(100))
    assert (percentile, n) == (90.0, 100)
    assert 89 < value < 90
    assert tail([3, 1, 2]) == (3, 100.0, 3)


def test_harrell_davis_quantiles():
    assert p50([]) == 0.0
    assert p50([4.0]) == 4.0
    assert p50([5.0] * 9) == pytest.approx(5.0)
    assert p50(range(101)) == pytest.approx(50.0)
    values = [random.Random(1).expovariate(1.0) for _ in range(300)]
    assert quantile(values, 0.25) < p50(values) < quantile(values, 0.9)


def test_harrell_davis_median_moves_smoothly_across_a_gap():
    # Two clusters meet at the median: the sample median jumps by the
    # whole gap when one sample crosses over, the estimate by a fraction.
    low = [10.0 + 0.01 * k for k in range(50)]
    high = [20.0 + 0.01 * k for k in range(50)]
    before = p50(low + high)
    after = p50(low[:-1] + high + [20.5])
    assert 0 < after - before < 2.0


def test_rounds_split_the_stream_and_hits_and_misses_are_netted_apart():
    from perfbench.served import _latency_split, by_round

    size = 2 * gen.TEMPLATE_ROUND
    records = []
    for k in range(2 * size):
        hit = k % 2 == 1
        records.append({
            "ok": True, "t0": float(k), "t1": k + 0.5, "latency_s": 0.5,
            "stats": {"served_by": "cache" if hit else "fleet"},
        })
    rounds = by_round(records, lambda t0, t1: (t1 - t0) / 2)
    assert len(rounds) == 2
    assert rounds[1]["wall_s"] == pytest.approx((size - 0.5) / 2)
    assert rounds[0]["completed"] == size
    hits, misses = _latency_split(records, lambda t0, t1: (t1 - t0) / 5, lambda t0, t1: (t1 - t0) / 2)
    assert len(hits) == len(misses) == size
    assert set(hits) == {100.0}
    assert set(misses) == {250.0}


# -- steal clock ----------------------------------------------------------------------


def _clock(times, steal_by_cpu):
    clock = StealClock()
    clock.times = list(times)
    clock.samples = [dict(zip(steal_by_cpu, values)) for values in zip(*steal_by_cpu.values())]
    return clock


def test_steal_clock_interpolates_between_reads():
    clock = _clock([0.0, 1.0, 2.0], {0: [0.0, 0.5, 0.5], 1: [0.0, 0.0, 0.2]})
    assert clock.stolen(0.0, 2.0, [0]) == pytest.approx(0.5)
    assert clock.stolen(0.5, 1.5, [0]) == pytest.approx(0.25)
    assert clock.stolen(0.0, 2.0, [0, 1]) == pytest.approx(0.35)
    assert clock.net(0.0, 2.0, [0]) == pytest.approx(1.5)
    # Before the first and after the last read, steal is flat.
    assert clock.stolen(-1.0, 0.0, [0]) == 0.0
    assert clock.stolen(2.0, 3.0, [1]) == 0.0


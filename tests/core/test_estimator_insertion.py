"""Unit tests for table insertion: free slots, standard replacement, and
the white + compare supplement (paper Section 3.3)."""

import math

import pytest

from repro.core.estimator import EstimatorConfig

from tests.core.helpers import StubCompare, beacon, build_estimator, unicast_attempt


def tiny_config(**overrides):
    defaults = dict(
        table_size=2,
        ku=5,
        kb=2,
        alpha_outer=0.0,
        alpha_beacon=0.0,
        use_standard_replacement=True,
        use_white_compare=True,
        evict_etx_threshold=3.0,
        immature_evict_expected=6,
    )
    defaults.update(overrides)
    return EstimatorConfig(**defaults)


def fill_table_with_good_links(est, addrs=(1, 2)):
    for addr in addrs:
        beacon(est, addr, seq=0)
        beacon(est, addr, seq=1)  # mature at ETX 1.0


def test_free_slot_insert_unconditional():
    est, _, _ = build_estimator(tiny_config(), compare=StubCompare(False))
    beacon(est, 1, seq=0, white=False, route_info=False)
    assert 1 in est.table


def test_full_table_good_entries_no_compare_rejects():
    compare = StubCompare(False)
    est, _, _ = build_estimator(tiny_config(), compare=compare)
    fill_table_with_good_links(est)
    beacon(est, 9, seq=0)  # white bit set, routed — but compare says no
    assert 9 not in est.table
    assert compare.queries == 1
    assert est.stats.rejected_no_compare == 1


def test_white_compare_insert_replaces_random_entry():
    compare = StubCompare(True)
    est, _, _ = build_estimator(tiny_config(), compare=compare)
    fill_table_with_good_links(est)
    beacon(est, 9, seq=0)
    assert 9 in est.table
    assert len(est.table) == 2
    assert est.stats.inserts_compare == 1


def test_white_bit_required():
    compare = StubCompare(True)
    est, _, _ = build_estimator(tiny_config(), compare=compare)
    fill_table_with_good_links(est)
    beacon(est, 9, seq=0, white=False)
    assert 9 not in est.table
    assert est.stats.rejected_no_white == 1
    assert compare.queries == 0  # white bit gates the query itself


def test_white_requirement_can_be_disabled():
    compare = StubCompare(True)
    est, _, _ = build_estimator(
        tiny_config(require_white_bit=False), compare=compare
    )
    fill_table_with_good_links(est)
    beacon(est, 9, seq=0, white=False)
    assert 9 in est.table


def test_non_routing_packets_never_trigger_compare():
    compare = StubCompare(True)
    est, _, _ = build_estimator(tiny_config(), compare=compare)
    fill_table_with_good_links(est)
    beacon(est, 9, seq=0, route_info=False)
    assert 9 not in est.table
    assert compare.queries == 0


def test_pinned_entries_never_flushed_by_compare():
    compare = StubCompare(True)
    est, _, _ = build_estimator(tiny_config(), compare=compare)
    fill_table_with_good_links(est)
    est.pin(1)
    est.pin(2)
    beacon(est, 9, seq=0)
    assert 9 not in est.table
    assert est.stats.rejected_all_pinned == 1
    assert set(est.table.addresses()) == {1, 2}


def test_pin_ablation_allows_flushing_pinned():
    compare = StubCompare(True)
    est, _, _ = build_estimator(tiny_config(honor_pin_bit=False), compare=compare)
    fill_table_with_good_links(est)
    est.pin(1)
    est.pin(2)
    beacon(est, 9, seq=0)
    assert 9 in est.table


def test_young_immature_entries_protected_from_compare_flush():
    compare = StubCompare(True)
    est, _, _ = build_estimator(tiny_config(), compare=compare)
    beacon(est, 1, seq=0)  # immature, age 1
    beacon(est, 2, seq=0)  # immature, age 1
    beacon(est, 9, seq=0)  # table full of young entries → nothing flushable
    assert 9 not in est.table


def test_standard_replacement_evicts_measured_bad_entry():
    est, _, _ = build_estimator(tiny_config(), compare=StubCompare(False))
    fill_table_with_good_links(est, addrs=(1,))
    # Make entry 2 mature and bad (ETX 5 > threshold 3).
    beacon(est, 2, seq=0)
    beacon(est, 2, seq=1)
    for _ in range(5):
        unicast_attempt(est, 2, acked=False)
    assert est.link_quality(2) == pytest.approx(5.0)
    beacon(est, 9, seq=0, white=False, route_info=False)  # plain newcomer
    assert 9 in est.table
    assert 2 not in est.table
    assert est.stats.inserts_evict_worst == 1


def test_standard_replacement_evicts_stale_immature():
    # An infinite threshold disables "measurably bad" eviction only: an
    # immature entry's ETX (inf) must not pass for a good one.
    for threshold in (3.0, math.inf):
        config = tiny_config(
            bidirectional_beacons=True,
            default_prr_out=None,
            immature_evict_expected=4,
            evict_etx_threshold=threshold,
        )
        est, _, _ = build_estimator(config, compare=StubCompare(False))
        for seq in range(5):  # entry 1 ages without ever maturing (no footer)
            beacon(est, 1, seq=seq)
        beacon(est, 2, seq=0)  # fills the table (young immature)
        beacon(est, 9, seq=0, white=False, route_info=False)
        assert 9 in est.table
        assert 1 not in est.table  # the stale one went, not the young one
        assert 2 in est.table


def test_standard_replacement_keeps_good_entries():
    est, _, _ = build_estimator(tiny_config(), compare=StubCompare(False))
    fill_table_with_good_links(est)
    beacon(est, 9, seq=0, white=False, route_info=False)
    assert 9 not in est.table
    assert set(est.table.addresses()) == {1, 2}


def test_compare_evict_worst_ablation():
    compare = StubCompare(True)
    est, _, _ = build_estimator(
        tiny_config(compare_evict="worst"), compare=compare
    )
    fill_table_with_good_links(est, addrs=(1,))
    # entry 2: mature at ETX 2.5 (below standard threshold, above entry 1).
    beacon(est, 2, seq=0)
    beacon(est, 2, seq=1)
    for acked in (True, True, False, False, False):
        unicast_attempt(est, 2, acked)
    beacon(est, 9, seq=0)
    assert 9 in est.table
    assert 2 not in est.table  # the worst went, deterministically
    assert 1 in est.table


def test_without_compare_provider_no_insert():
    est, _, _ = build_estimator(tiny_config(), compare=None)
    fill_table_with_good_links(est)
    beacon(est, 9, seq=0)
    assert 9 not in est.table


def test_invalid_compare_evict_rejected():
    with pytest.raises(ValueError):
        EstimatorConfig(compare_evict="nonsense")


def test_invalid_window_rejected():
    with pytest.raises(ValueError):
        EstimatorConfig(ku=0)
    with pytest.raises(ValueError):
        EstimatorConfig(kb=0)

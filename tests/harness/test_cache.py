"""The persistent disk cache: keys, atomicity, robustness, eviction."""

import dataclasses
import threading

import pytest

from repro.harness.cache import (
    CacheStats,
    DiskCache,
    canonical_token,
    configure,
    current_config,
    get_cache,
)
from repro.harness.fidelity import FAST
from repro.harness.measure import CoreMeasurement


@pytest.fixture
def store(tmp_path):
    return DiskCache(tmp_path / "cache")


class TestCanonicalToken:
    def test_floats_are_exact(self):
        # The motivating bug: round(rate, 4) collided distinct rates.
        a = canonical_token(1_000_000.00001)
        b = canonical_token(1_000_000.00002)
        assert a != b

    def test_dataclasses_expand_every_field(self):
        # Same name, different knobs: must not alias.
        tweaked = dataclasses.replace(FAST, queue_requests=FAST.queue_requests + 1)
        assert tweaked.name == FAST.name
        assert canonical_token(tweaked) != canonical_token(FAST)

    def test_dict_order_is_canonical(self):
        assert canonical_token({"a": 1, "b": 2}) == canonical_token(
            {"b": 2, "a": 1}
        )

    def test_deterministic_across_calls(self):
        assert canonical_token(FAST) == canonical_token(
            dataclasses.replace(FAST)
        )


class TestRoundTrip:
    def test_put_get(self, store):
        key = store.key("tail", rate=123.456)
        assert store.get(key) is None
        store.put(key, 0.125)
        assert store.get(key) == 0.125
        assert store.stats.hits == 1 and store.stats.misses == 1

    def test_distinct_parts_distinct_keys(self, store):
        assert store.key("tail", rate=1.0) != store.key("tail", rate=2.0)
        assert store.key("tail", rate=1.0) != store.key("measure", rate=1.0)

    def test_expect_type_guard(self, store):
        key = store.key("measure", x=1)
        store.put(key, "not a measurement")
        assert store.get(key, expect=CoreMeasurement) is None
        assert store.stats.errors == 1
        # The offending entry was dropped, not left to fail again.
        assert store.get(key) is None


class TestCorruptionTolerance:
    def test_truncated_entry_is_a_miss(self, store):
        key = store.key("tail", rate=9.0)
        store.put(key, 3.14)
        path = store.path_for(key)
        path.write_bytes(path.read_bytes()[:3])
        assert store.get(key) is None
        assert store.stats.errors == 1
        assert not path.exists()  # dropped so the slot can be rewritten

    def test_garbage_entry_is_a_miss(self, store):
        key = store.key("tail", rate=10.0)
        store.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(key).write_bytes(b"\x00garbage\xff" * 10)
        assert store.get(key) is None

    def test_empty_entry_is_a_miss(self, store):
        key = store.key("tail", rate=11.0)
        store.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(key).write_bytes(b"")
        assert store.get(key) is None

    def test_unwritable_root_never_raises(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        store = DiskCache(blocked)
        store.put(store.key("tail", rate=1.0), 1.0)  # swallowed
        assert store.stats.errors == 1


class TestSchemaSalt:
    def test_schema_bump_invalidates(self, tmp_path):
        v1 = DiskCache(tmp_path, schema_version=1)
        v2 = DiskCache(tmp_path, schema_version=2)
        v1.put(v1.key("measure", design="baseline"), 42.0)
        assert v2.get(v2.key("measure", design="baseline")) is None
        assert v1.get(v1.key("measure", design="baseline")) == 42.0


class TestEviction:
    def test_size_bound_evicts_oldest(self, tmp_path):
        store = DiskCache(tmp_path, max_bytes=400)
        import os

        keys = [store.key("tail", rate=float(i)) for i in range(20)]
        for i, key in enumerate(keys):
            store.put(key, float(i))
            # Strictly increasing mtimes so LRU order is unambiguous even
            # on coarse filesystem timestamps.
            os.utime(store.path_for(key), (i, i))
        assert store.total_bytes() <= 400
        assert store.stats.evictions > 0
        # The most recent entry survives; the very first was evicted.
        assert store.get(keys[-1]) == 19.0
        assert store.get(keys[0]) is None

    def test_unbounded_when_none(self, tmp_path):
        store = DiskCache(tmp_path, max_bytes=None)
        for i in range(10):
            store.put(store.key("tail", rate=float(i)), float(i))
        assert store.entry_count() == 10
        assert store.stats.evictions == 0

    def test_evicts_at_the_same_writes_in_the_same_order(self, tmp_path):
        """The byte count only decides when to scan: each write evicts
        exactly what a scan after every write (the rule it replaced)
        evicts, oldest first, at the same write."""
        import os

        store = DiskCache(tmp_path, max_bytes=700)
        keys = [store.key("tail", rate=float(i)) for i in range(30)]
        sizes: dict[str, int] = {}
        live: list[str] = []  # oldest first
        for i, key in enumerate(keys):
            # Payloads of varying size, so evictions free uneven amounts.
            value = [float(i)] * (1 + i % 7)
            store.put(key, value)
            # Older entries get strictly increasing fake mtimes, all
            # earlier than the write just made.
            os.utime(store.path_for(key), (i, i))
            sizes[key] = store.path_for(key).stat().st_size
            live.append(key)
            expected_evicted = []
            while sum(sizes[k] for k in live) > 700:
                expected_evicted.append(live.pop(0))
            on_disk = [k for k in keys[: i + 1] if store.path_for(k).exists()]
            assert on_disk == live, f"write {i}"
        assert store.stats.evictions == len(keys) - len(live)

    def test_writes_under_the_bound_scan_once(self, tmp_path, monkeypatch):
        scans = []
        original = DiskCache._entries

        def counting(self):
            scans.append(self)
            return original(self)

        monkeypatch.setattr(DiskCache, "_entries", counting)
        first, second = DiskCache(tmp_path), DiskCache(tmp_path)
        for i in range(40):
            store = first if i % 2 else second
            store.put(store.key("tail", rate=float(i)), float(i))
        assert scans.count(first) == 1 and scans.count(second) == 1
        assert first.stats.evictions == second.stats.evictions == 0


class TestConcurrency:
    def test_concurrent_writers_never_corrupt(self, tmp_path):
        store = DiskCache(tmp_path)
        key = store.key("tail", rate=1.0)
        errors = []

        def writer(value):
            try:
                for _ in range(50):
                    store.put(key, value)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def reader():
            try:
                for _ in range(200):
                    value = store.get(key, expect=float)
                    assert value is None or value in (1.0, 2.0, 3.0)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(v,)) for v in (1.0, 2.0, 3.0)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Whatever write landed last, the entry is intact.
        assert store.get(key, expect=float) in (1.0, 2.0, 3.0)

    def test_distinct_keys_all_land(self, tmp_path):
        store = DiskCache(tmp_path)
        keys = [store.key("tail", rate=float(i)) for i in range(32)]

        def writer(chunk):
            for i in chunk:
                store.put(keys[i], float(i))

        threads = [
            threading.Thread(target=writer, args=(range(j, 32, 4),))
            for j in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert [store.get(k) for k in keys] == [float(i) for i in range(32)]


class TestStats:
    def test_since_and_merge(self):
        a = CacheStats(hits=5, misses=3, writes=2)
        before = a.snapshot()
        a.hits += 2
        a.writes += 1
        delta = a.since(before)
        assert (delta.hits, delta.misses, delta.writes) == (2, 0, 1)
        b = CacheStats()
        b.merge(delta)
        assert b.hits == 2 and b.writes == 1
        assert a.hit_rate == pytest.approx(7 / 10)


class TestProcessDefault:
    def test_configure_and_disable(self, tmp_path):
        previous = current_config()
        try:
            active = configure(root=tmp_path / "c1")
            assert get_cache() is active
            assert current_config()["root"] == str(tmp_path / "c1")
            assert configure(enabled=False) is None
            assert get_cache() is None
            assert current_config() == {"enabled": False}
        finally:
            configure(**previous)


class TestKindStats:
    def test_record_lookup_by_kind(self):
        s = CacheStats()
        s.record_lookup("measure", hit=True)
        s.record_lookup("measure", hit=False)
        s.record_lookup("tail", hit=True)
        s.record_lookup(None, hit=True)  # untagged lookups stay aggregate-only
        assert s.kinds() == ["measure", "tail"]
        assert s.kind_hit_rate("measure") == pytest.approx(0.5)
        assert s.kind_hit_rate("tail") == 1.0
        assert s.kind_hit_rate("absent") == 0.0

    def test_since_and_merge_carry_kinds(self):
        a = CacheStats()
        a.record_lookup("measure", hit=True)
        before = a.snapshot()
        a.record_lookup("measure", hit=False)
        a.record_lookup("tail", hit=True)
        delta = a.since(before)
        assert delta.kind_hits == {"tail": 1}
        assert delta.kind_misses == {"measure": 1}
        b = CacheStats(kind_hits={"tail": 2})
        b.merge(delta)
        assert b.kind_hits == {"tail": 3}
        assert b.kind_misses == {"measure": 1}

    def test_snapshot_is_isolated(self):
        a = CacheStats()
        a.record_lookup("measure", hit=True)
        snap = a.snapshot()
        a.record_lookup("measure", hit=True)
        assert snap.kind_hits == {"measure": 1}
        assert a.kind_hits == {"measure": 2}

    def test_disk_get_tags_kinds(self, store):
        store.put(store.key("measure", x=1), 1.0)
        store.get(store.key("measure", x=1), kind="measure")
        store.get(store.key("measure", x=2), kind="measure")  # miss
        store.get(store.key("tail", x=1), kind="tail")  # miss
        assert store.stats.kind_hits == {"measure": 1}
        assert store.stats.kind_misses == {"measure": 1, "tail": 1}

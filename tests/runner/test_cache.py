"""On-disk result cache: round-trip, corruption, atomic writes."""

import pickle

from repro.runner.cache import MISS, ResultCache


def test_miss_then_roundtrip(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    digest = "ab" + "0" * 30
    assert cache.get(digest) is MISS
    assert digest not in cache
    cache.put(digest, {"cost": 1.5, "runs": [1, 2, 3]})
    assert cache.get(digest) == {"cost": 1.5, "runs": [1, 2, 3]}
    assert digest in cache
    assert len(cache) == 1


def test_cached_none_is_not_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("cd" + "0" * 30, None)
    assert cache.get("cd" + "0" * 30) is None


def test_corrupt_entry_counts_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    digest = "ef" + "0" * 30
    cache.put(digest, [1, 2])
    path = cache.path_for(digest)
    path.write_bytes(b"\x80\x04 definitely not a pickle")
    assert cache.get(digest) is MISS
    # Overwriting repairs the entry.
    cache.put(digest, [3])
    assert cache.get(digest) == [3]


def test_put_is_atomic_no_temp_litter(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("01" + "0" * 30, list(range(100)))
    leftovers = [p for p in tmp_path.rglob("*") if p.is_file() and p.suffix != ".pkl"]
    assert leftovers == []


def test_empty_cache_is_still_a_cache(tmp_path):
    """`len(cache) == 0` makes the object falsy; constructors must not use
    `cache or None` (regression: the CLI silently dropped fresh caches)."""
    cache = ResultCache(tmp_path)
    assert len(cache) == 0
    assert (cache or None) is None  # this is WHY identity checks are required

    from repro.runner.runner import ExperimentRunner

    runner = ExperimentRunner(cache=cache)
    assert runner.cache is cache


def test_torn_write_is_a_miss_not_a_phantom_hit(tmp_path):
    """Regression: ``__contains__`` used to be a bare ``path.exists()``, so a
    truncated entry (power loss mid-write before the atomic rename landed,
    or a partially copied cache dir) answered "present" while ``get``
    answered MISS — sweeps then recorded cache hits with no result and
    campaigns resumed with holes.  Membership must mean *readable*."""
    cache = ResultCache(tmp_path)
    digest = "aa" + "0" * 30
    cache.put(digest, {"objective": 1.0})
    assert digest in cache

    # Tear the entry: keep the file, destroy the payload.
    path = cache.path_for(digest)
    path.write_bytes(path.read_bytes()[: max(1, len(path.read_bytes()) // 2)])

    assert cache.get(digest) is MISS
    assert digest not in cache  # membership and get() agree

    # The runner treats the torn entry as never-ran and re-executes.
    from repro.runner.runner import ExperimentRunner, Task

    runner = ExperimentRunner(cache=cache, telemetry=None)
    task = Task(fn=_double, arg=21)
    cache.put(task.digest(), 42)
    torn = cache.path_for(task.digest())
    torn.write_bytes(b"\x80")
    (result,) = runner.run([task])
    assert result == 42
    assert runner.stats.executed == 1 and runner.stats.cache_hits == 0
    assert cache.get(task.digest()) == 42  # and the entry healed


def _double(x):
    return x * 2

"""Unit tests for the parallel-engine primitives.

Covers the worker pool (deterministic ordering, env resolution, nested
suppression, exception propagation), the partitioner, canonical
fingerprints (order/aliasing independence, content sensitivity), and
the content-addressed certificate cache.
"""

import os

import pytest

from repro.core import Event
from repro.core.certificate import Certificate
from repro.core.log import Log
from repro.envflags import pinned
from repro.parallel import (
    ENGINE_VERSION,
    cache_dir,
    cache_enabled,
    cached_certificate,
    canonical_fingerprint,
    chunk_evenly,
    clear_cache,
    cpu_budget,
    get_jobs,
    parallel_map,
)
from repro.parallel.cache import cache_key


class TestPool:
    def test_results_in_submission_order(self):
        with pinned(jobs=2):
            assert parallel_map(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]

    def test_serial_fallback_single_item(self):
        with pinned(jobs=4):
            assert parallel_map(lambda x: x + 1, [41]) == [42]

    def test_jobs_env_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert get_jobs() == 1
        # The environment request is a cap, clamped to the hardware:
        # extra CPU-bound enumeration workers beyond the core count only
        # add fork and context-switch overhead.
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert get_jobs() == min(3, cpu_budget())
        with pinned(jobs=3):
            assert get_jobs() == 3  # the process-boundary test pin binds
        with pinned(jobs=2):
            assert get_jobs() == 2  # the pin beats the env, unclamped
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert get_jobs() == cpu_budget()
        monkeypatch.delenv("REPRO_JOBS")
        with pinned(jobs=0):
            assert get_jobs() == cpu_budget()

    def test_jobs_env_typo_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "abc")
        with pytest.raises(ValueError, match="REPRO_JOBS='abc'.*worker count"):
            get_jobs()

    def test_negative_jobs_env_raises(self, monkeypatch):
        # Not "one worker per CPU": only 0 means that.
        monkeypatch.setenv("REPRO_JOBS", "-3")
        with pytest.raises(ValueError, match="REPRO_JOBS='-3' is negative"):
            get_jobs()

    def test_negative_pinned_jobs_raise(self):
        with pytest.raises(ValueError, match="jobs=-3 is negative"):
            with pinned(jobs=-3):
                pytest.fail("a negative pin must not take effect")

    def test_leftover_jobs_force_raises(self, monkeypatch):
        # The retired force switch would silently clamp a run its user
        # meant to force, so it is rejected as an unknown name.
        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_JOBS_FORCE", "1")
        with pytest.raises(ValueError, match="REPRO_JOBS_FORCE.*REPRO_JOBS,"):
            get_jobs()

    def test_no_nested_pools_in_workers(self):
        # A task asking for workers must be told 1 inside a worker.
        with pinned(jobs=8):
            results = parallel_map(lambda _: get_jobs(), [0, 1])
        assert results == [1, 1]

    def test_first_failing_index_raises(self):
        def boom(x):
            if x % 2:
                raise ValueError(f"bad {x}")
            return x

        with pytest.raises(ValueError, match="bad 1"), pinned(jobs=2):
            parallel_map(boom, [0, 1, 2, 3])

    def test_unpicklable_items_via_fork_inheritance(self):
        # Closures and lambdas never cross the pickle boundary: only
        # indices are submitted, so unpicklable items are fine.
        captured = {"base": 10}
        items = [lambda: captured["base"] + 1, lambda: captured["base"] + 2]
        with pinned(jobs=2):
            assert parallel_map(lambda f: f(), items) == [11, 12]


class TestPartition:
    def test_empty(self):
        assert chunk_evenly([], 4) == []

    def test_more_chunks_than_items(self):
        assert chunk_evenly([1, 2], 8) == [[1], [2]]

    def test_contiguous_and_balanced(self):
        items = list(range(10))
        chunks = chunk_evenly(items, 3)
        assert [x for chunk in chunks for x in chunk] == items
        sizes = [len(c) for c in chunks]
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)


class TestCanonical:
    def test_dict_insertion_order_irrelevant(self):
        assert canonical_fingerprint({"a": 1, "b": 2}) == canonical_fingerprint(
            {"b": 2, "a": 1}
        )

    def test_set_build_order_irrelevant(self):
        a = {("x", i) for i in range(20)}
        b = {("x", i) for i in reversed(range(20))}
        assert canonical_fingerprint(a) == canonical_fingerprint(b)

    def test_aliasing_irrelevant(self):
        # One shared object vs two equal copies must fingerprint equally
        # (event interning makes aliasing run-dependent).
        shared = (1, (2, 3))
        aliased = (shared, shared)
        copied = ((1, (2, 3)), (1, (2, 3)))
        assert canonical_fingerprint(aliased) == canonical_fingerprint(copied)

    def test_cycles_terminate_and_are_stable(self):
        a = [1, 2]
        a.append(a)
        b = [1, 2]
        b.append(b)
        assert canonical_fingerprint(a) == canonical_fingerprint(b)

    def test_function_bytecode_sensitivity(self):
        f = lambda log: log.count("bump") == 0  # noqa: E731
        g = lambda log: log.count("bump") == 1  # noqa: E731
        h = lambda log: log.count("bump") == 0  # noqa: E731
        assert canonical_fingerprint(f) != canonical_fingerprint(g)
        assert canonical_fingerprint(f) == canonical_fingerprint(h)

    def test_closure_contents_sensitivity(self):
        def make(n):
            return lambda: n

        assert canonical_fingerprint(make(1)) != canonical_fingerprint(make(2))
        assert canonical_fingerprint(make(1)) == canonical_fingerprint(make(1))

    def test_keyword_only_defaults_sensitivity(self):
        # A keyword-only default lives in ``__kwdefaults__``, not in
        # ``__defaults__``: two specs differing only there must not share
        # a cache key, just as the positional twins do not.
        def make_keyword(limit):
            def spec(ctx, lock, *, limit=limit):
                return limit

            return spec

        def make_positional(limit):
            def spec(ctx, lock, limit=limit):
                return limit

            return spec

        for make in (make_keyword, make_positional):
            assert canonical_fingerprint(make(1)) != canonical_fingerprint(make(2))
            assert canonical_fingerprint(make(1)) == canonical_fingerprint(make(1))

    def test_log_content_addressed(self):
        a = Log([Event(1, "bump"), Event(2, "bump")])
        b = Log([Event(1, "bump"), Event(2, "bump")])
        c = Log([Event(2, "bump"), Event(1, "bump")])
        assert canonical_fingerprint(a) == canonical_fingerprint(b)
        assert canonical_fingerprint(a) != canonical_fingerprint(c)

    def test_cross_process_stability(self):
        # No hash() salting, no addresses: a worker process computes the
        # same fingerprint as the parent.
        payload = {"bounds": (1, 2), "spec": lambda log: log.count("x") == 0}
        here = canonical_fingerprint(payload)
        with pinned(jobs=2):
            there = parallel_map(canonical_fingerprint, [payload, payload])
        assert there == [here, here]


class TestCache:
    def test_cache_switch_is_a_strict_boolean(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("REPRO_CACHE", "TRUE")
        assert cache_enabled()
        monkeypatch.setenv("REPRO_CACHE", " 0 ")
        assert not cache_enabled()
        monkeypatch.setenv("REPRO_CACHE", "ture")
        with pytest.raises(ValueError, match="REPRO_CACHE='ture'.*false"):
            cache_enabled()

    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert not cache_enabled()
        calls = []

        def compute():
            calls.append(1)
            return Certificate("j", "test")

        cached_certificate("Test", ("a",), compute)
        cached_certificate("Test", ("a",), compute)
        assert len(calls) == 2  # no caching without opt-in

    @pytest.mark.usefixtures("obs_off")
    def test_cold_then_warm(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert cache_enabled()
        assert cache_dir() == str(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            cert = Certificate("j", "test", bounds={"fuel": 3})
            cert.add("the obligation", True, "details")
            return cert

        cold = cached_certificate("Test", ("a", 1), compute)
        warm = cached_certificate("Test", ("a", 1), compute)
        assert len(calls) == 1
        assert warm.to_json() == cold.to_json()

    def test_key_sensitivity_invalidates(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        calls = []

        def compute():
            calls.append(1)
            return Certificate("j", "test")

        cached_certificate("Test", (lambda: 1,), compute)
        cached_certificate("Test", (lambda: 2,), compute)  # changed code
        assert len(calls) == 2

    @pytest.mark.usefixtures("obs_off")
    def test_failing_certificates_cached(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

        def compute():
            cert = Certificate("j", "test")
            cert.add("broken", False, "it failed")
            return cert

        cold = cached_certificate("Test", ("fail",), compute)
        warm = cached_certificate(
            "Test", ("fail",), lambda: pytest.fail("must not recompute")
        )
        assert not warm.ok
        assert warm.to_json() == cold.to_json()

    def test_clear_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cached_certificate("Test", ("x",), lambda: Certificate("j", "t"))
        assert clear_cache() == 1
        assert clear_cache() == 0

    def test_engine_version_in_key(self):
        key = cache_key("Test", ("x",))
        assert key != canonical_fingerprint(("Test", ("x",)))
        assert ENGINE_VERSION.startswith("repro-engine/")

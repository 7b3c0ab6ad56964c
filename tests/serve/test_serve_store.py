"""Unit tests for the served-certificate store: CAS, tenancy, LRU."""

import os

import pytest

from repro.serve.store import CertificateStore, LatencyWindow

FP_A = "aa" + "0" * 62
FP_B = "bb" + "0" * 62
FP_C = "cc" + "0" * 62


class TestStore:
    def test_roundtrip_and_metrics(self, tmp_path):
        store = CertificateStore(str(tmp_path))
        assert store.get("t1", FP_A) is None
        store.put("t1", FP_A, b'{"ok": true}')
        assert store.get("t1", FP_A) == b'{"ok": true}'
        assert (store.hits, store.misses, store.puts) == (1, 1, 1)

    def test_sharded_layout(self, tmp_path):
        store = CertificateStore(str(tmp_path))
        path = store.put("t1", FP_A, b"x")
        assert path == os.path.join(
            str(tmp_path), "t1", FP_A[:2], FP_A + ".json"
        )

    def test_tenant_namespaces_isolated(self, tmp_path):
        store = CertificateStore(str(tmp_path))
        store.put("alpha", FP_A, b"alpha-bytes")
        # The same fingerprint is NOT a hit for another tenant.
        assert store.get("beta", FP_A) is None
        store.put("beta", FP_A, b"beta-bytes")
        assert store.get("alpha", FP_A) == b"alpha-bytes"
        assert store.get("beta", FP_A) == b"beta-bytes"
        assert store.tenants() == ["alpha", "beta"]

    def test_unsafe_names_rejected(self, tmp_path):
        store = CertificateStore(str(tmp_path))
        for bad in ("../escape", "", ".hidden", "a/b"):
            with pytest.raises(ValueError):
                store.get(bad, FP_A)
            with pytest.raises(ValueError):
                store.get("t1", bad or ".")

    def test_lru_eviction_by_recency(self, tmp_path):
        store = CertificateStore(str(tmp_path), max_bytes=250)
        blob = b"x" * 100
        store.put("t1", FP_A, blob)
        store.put("t1", FP_B, blob)
        # Make A clearly older, then touch it via a hit so B is stalest.
        os.utime(store._path("t1", FP_A), (1, 1))
        os.utime(store._path("t1", FP_B), (2, 2))
        assert store.get("t1", FP_A) is not None  # LRU touch
        store.put("t1", FP_C, blob)  # 300 bytes > 250: evict stalest
        assert store.evictions == 1
        assert store.get("t1", FP_B) is None  # B went
        assert store.get("t1", FP_A) is not None  # A survived via recency
        assert store.get("t1", FP_C) is not None

    def test_byte_budget_is_shared_but_reads_stay_isolated(self, tmp_path):
        store = CertificateStore(str(tmp_path), max_bytes=250)
        blob = b"x" * 100
        store.put("a", FP_A, blob)
        store.put("a", FP_B, blob)
        os.utime(store._path("a", FP_A), (1, 1))  # a's stalest entry
        os.utime(store._path("a", FP_B), (2, 2))
        store.put("b", FP_C, blob)  # 300 bytes > 250: evicts across tenants
        assert store.evictions == 1
        assert store.get("a", FP_A) is None
        assert store.get("a", FP_B) == blob
        # a's entries are still never a hit for b.
        assert store.get("b", FP_B) is None
        assert store.get("b", FP_C) == blob

    def test_eviction_never_removes_fresh_put(self, tmp_path):
        store = CertificateStore(str(tmp_path), max_bytes=10)
        store.put("t1", FP_A, b"y" * 100)  # over budget on its own
        assert store.get("t1", FP_A) == b"y" * 100


class TestLatencyWindow:
    def test_percentiles(self):
        window = LatencyWindow()
        for ms in [1, 2, 3, 4, 100]:
            window.add(ms / 1000.0)
        summary = window.summary()
        assert summary["count"] == 5
        assert summary["p50_ms"] == 3.0
        assert summary["max_ms"] == 100.0

    def test_bounded_reservoir(self):
        window = LatencyWindow(limit=10)
        for i in range(1000):
            window.add(float(i))
        assert window.count == 1000
        assert len(window._samples) == 10

"""Lint rule-set versioning in the certificate cache, and byte identity.

ISSUE 5 satellite: the lint rule-set version is folded into
``ENGINE_VERSION``, so certificates produced under an older rule set
are invalidated — through the content address *and* through ``_load``'s
engine check on existing entries.  Plus the standing determinism
contract: with lint enabled (the default), obs-off certificate bytes
stay identical across serial, parallel, and cached runs.
"""

from __future__ import annotations

import json
import os
import pickle

import pytest

from repro.analysis.rules import RULESET_VERSION
from repro.cas import ContentStore, StoreWarning
from repro.core import FuncImpl, SimConfig, fun_rule
from repro.envflags import pinned
from repro.parallel.cache import ENGINE_VERSION, cache_key

from lint_players import atomic_bump2_impl


def cert_bytes(cert):
    return json.dumps(
        cert.to_json(), sort_keys=True, ensure_ascii=False
    ).encode()


def _certify(counter_base, counter_overlay, ret_only_rel, **pins):
    config = SimConfig(env_alphabet=[()], env_depth=1, compare_rets=False)
    with pinned(**pins):
        return fun_rule(
            counter_base, FuncImpl("bump2", atomic_bump2_impl),
            counter_overlay, ret_only_rel, 1, config,
        )


class TestRulesetVersioning:
    def test_ruleset_version_folded_into_engine_version(self):
        assert RULESET_VERSION in ENGINE_VERSION

    @pytest.mark.usefixtures("obs_off")
    def test_older_ruleset_entry_is_recomputed(
        self, monkeypatch, tmp_path, counter_base, counter_overlay,
        ret_only_rel,
    ):
        """An on-disk entry stamped with an older engine string is dead."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cold = _certify(counter_base, counter_overlay, ret_only_rel)
        store = ContentStore(str(tmp_path), ".pkl")
        keys = [
            os.path.basename(path)[: -len(".pkl")]
            for _mtime, _size, path in store.entries()
        ]
        assert keys, "cold run did not populate the cache"

        # Forge what a pre-lint (or older-ruleset) engine would have
        # written: same payload, older engine stamp, poisoned judgment
        # so we can tell if it gets served.  The forged entry is written
        # through the store, so it passes its digest check and only the
        # engine check can reject it.  Obligation-granular entries
        # store payload dicts, so pick a certificate-valued entry.
        for key in keys:
            entry = pickle.loads(store.get(key))
            if hasattr(entry.get("certificate"), "judgment"):
                break
        else:
            raise AssertionError("no certificate-valued cache entry found")
        entry["engine"] = "repro-engine/1+repro-lint/0"
        entry["certificate"].judgment = "POISONED"
        store.put(key, pickle.dumps(entry))

        warm = _certify(counter_base, counter_overlay, ret_only_rel)
        # The poisoned old-ruleset entry must NOT be served.
        assert warm.certificate.judgment != "POISONED"
        assert cert_bytes(warm.certificate) == cert_bytes(cold.certificate)

    @pytest.mark.usefixtures("obs_off")
    def test_entry_that_no_longer_unpickles_is_recomputed(
        self, monkeypatch, tmp_path, counter_base, counter_overlay,
        ret_only_rel,
    ):
        """A digest-clean payload that fails to unpickle is a reported miss."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_JOBS", "1")  # warnings raised here
        cold = _certify(counter_base, counter_overlay, ret_only_rel)
        store = ContentStore(str(tmp_path), ".pkl")
        paths = sorted(path for _mtime, _size, path in store.entries())
        for path in paths:
            store.put(os.path.basename(path)[: -len(".pkl")], b"not a pickle")
        with pytest.warns(StoreWarning, match="does not unpickle") as caught:
            warm = _certify(counter_base, counter_overlay, ret_only_rel)
        assert sorted(str(w.message).split(":")[0] for w in caught) == paths
        assert cert_bytes(warm.certificate) == cert_bytes(cold.certificate)

    def test_cache_key_depends_on_engine_version(
        self, counter_base, counter_overlay, ret_only_rel, monkeypatch
    ):
        config = SimConfig(env_alphabet=[()], env_depth=1, compare_rets=False)
        parts = (
            counter_base, FuncImpl("bump2", atomic_bump2_impl),
            counter_overlay, ret_only_rel, 1, config,
        )
        key_now = cache_key("Fun", parts)
        import repro.parallel.cache as cache_mod

        monkeypatch.setattr(
            cache_mod, "ENGINE_VERSION", "repro-engine/1+repro-lint/0"
        )
        assert cache_key("Fun", parts) != key_now

    def test_lint_mode_does_not_shift_the_key(
        self, counter_base, counter_overlay, ret_only_rel, monkeypatch
    ):
        """Mode is an env concern; the content address ignores it — but
        linting an interface must not shift its fingerprint either."""
        config = SimConfig(env_alphabet=[()], env_depth=1, compare_rets=False)
        parts = (
            counter_base, FuncImpl("bump2", atomic_bump2_impl),
            counter_overlay, ret_only_rel, 1, config,
        )
        before = cache_key("Fun", parts)
        _certify(counter_base, counter_overlay, ret_only_rel, lint="strict")
        assert hasattr(counter_base, "_lint_memo")  # lint cached its pass
        assert cache_key("Fun", parts) == before


class TestByteIdentityWithLint:
    @pytest.mark.usefixtures("obs_off")
    def test_serial_parallel_cached_identical(
        self, monkeypatch, tmp_path, counter_base, counter_overlay,
        ret_only_rel,
    ):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        serial = _certify(counter_base, counter_overlay, ret_only_rel)
        parallel = _certify(
            counter_base, counter_overlay, ret_only_rel, jobs=2
        )
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cold = _certify(counter_base, counter_overlay, ret_only_rel)
        warm = _certify(counter_base, counter_overlay, ret_only_rel)

        expected = cert_bytes(serial.certificate)
        assert cert_bytes(parallel.certificate) == expected
        assert cert_bytes(cold.certificate) == expected
        assert cert_bytes(warm.certificate) == expected

    @pytest.mark.usefixtures("obs_off")
    def test_lint_modes_agree_on_clean_input_bytes(
        self, monkeypatch, counter_base, counter_overlay, ret_only_rel
    ):
        """Obs off, lint on/off produce the same certificate bytes."""
        monkeypatch.setenv("REPRO_LINT", "off")
        off = _certify(counter_base, counter_overlay, ret_only_rel)
        monkeypatch.setenv("REPRO_LINT", "record")
        record = _certify(counter_base, counter_overlay, ret_only_rel)
        monkeypatch.setenv("REPRO_LINT", "strict")
        strict = _certify(counter_base, counter_overlay, ret_only_rel)
        assert cert_bytes(off.certificate) == cert_bytes(record.certificate)
        assert cert_bytes(off.certificate) == cert_bytes(strict.certificate)

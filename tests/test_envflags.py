"""The one engine configuration: strict parsing, pinning, one reader."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro
from repro.envflags import KNOWN_VARS, config_from_env, engine_config, pinned
from repro.parallel import in_worker, parallel_map


class TestUnknownNames:
    def test_misspelt_name_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_REDCUE", "off")
        with pytest.raises(ValueError) as info:
            config_from_env()
        message = str(info.value)
        assert "REPRO_REDCUE" in message
        for name in KNOWN_VARS:
            assert name in message

    def test_known_names_parse(self, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_OBJECT", "probe")
        monkeypatch.setenv("REPRO_PROFILE", "0")
        monkeypatch.setenv("REPRO_CACHE", "off")
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert config_from_env().cache_dir is None


class TestPinned:
    def test_pin_reaches_pool_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_REDUCE", "off")
        monkeypatch.delenv("REPRO_LINT", raising=False)
        assert engine_config().reduce is False
        with pinned(jobs=2, reduce=True, lint="off"):
            seen = parallel_map(
                lambda _: (
                    in_worker(), engine_config().reduce, engine_config().lint
                ),
                [0, 1],
            )
        assert seen == [(True, True, "off")] * 2

    def test_pin_ends_with_its_block(self, monkeypatch):
        monkeypatch.delenv("REPRO_REDUCE", raising=False)
        with pinned(reduce=False):
            assert engine_config().reduce is False
        assert engine_config().reduce is True

    def test_overrides_are_validated(self):
        with pytest.raises(ValueError, match="reduce='dpor' is not a bool"):
            with pinned(reduce="dpor"):
                pytest.fail("an axis name must not take effect")
        with pytest.raises(ValueError, match="jobs='2' is not an integer"):
            with pinned(jobs="2"):
                pytest.fail("a string worker count must not take effect")


#: The observability arming reads, each owned by its module; no other
#: line of the package may read the environment.
ARMING_READS = {
    ("obs/profile.py", "if env_flag(PROFILE_ENV):"),
    ("obs/heartbeat.py", '_env_path = os.environ.get(HEARTBEAT_ENV, "").strip()'),
    ("obs/store.py", 'env_label = os.environ.get(LEDGER_OBJECT_ENV, "").strip()'),
    ("obs/store.py", '_env_ledger = os.environ.get(LEDGER_ENV, "").strip()'),
}


def test_only_envflags_reads_the_environment():
    root = Path(repro.__file__).parent
    reads = set()
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        if relative == "envflags.py":
            continue
        for line in path.read_text(encoding="utf-8").splitlines():
            if re.search(r"os\.environ|os\.getenv|env_flag\(", line):
                reads.add((relative, line.strip()))
    assert reads - ARMING_READS == set()

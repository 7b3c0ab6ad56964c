"""The content-addressed file store behind every on-disk store.

Fault injection: a truncated entry, a flipped payload byte, a damaged
header and ENOSPC on put each produce one ``StoreWarning`` naming the
file and read as a miss; nothing damaged is ever returned.
"""

from __future__ import annotations

import errno
import hashlib
import os

import pytest

from repro.cas import HEADER_BYTES, ContentStore, StoreWarning

KEY = "ab" + "0" * 62


def _flip(path, offset):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0x01]))


def _truncate(path, keep):
    with open(path, "r+b") as handle:
        handle.truncate(keep)


@pytest.fixture
def cas(tmp_path):
    return ContentStore(str(tmp_path / "store"), ".bin")


class TestLayout:
    def test_roundtrip_sharded_path_and_header(self, cas, tmp_path):
        path = cas.put(KEY, b"payload")
        assert path == str(tmp_path / "store" / "ab" / (KEY + ".bin"))
        assert cas.get(KEY) == b"payload"
        with open(path, "rb") as handle:
            header = handle.readline()
        digest = hashlib.sha256(b"payload").hexdigest()
        assert header == f"repro.cas/v1 {digest}\n".encode()
        assert len(header) == HEADER_BYTES

    def test_missing_entry_is_a_silent_miss(self, cas, recwarn):
        assert cas.get(KEY) is None
        assert not recwarn.list

    def test_unsafe_keys_rejected(self, cas):
        for bad in ("", ".hidden", "../escape", "a/b"):
            with pytest.raises(ValueError, match="unsafe store key"):
                cas.get(bad)
            with pytest.raises(ValueError, match="unsafe store key"):
                cas.put(bad, b"x")

    def test_entries_count_payload_bytes(self, cas):
        cas.put(KEY, b"x" * 100)
        cas.put("cd" + "0" * 62, b"y" * 10)
        assert sorted(size for _mtime, size, _path in cas.entries()) == [10, 100]


class TestDamagedEntries:
    @pytest.mark.parametrize("damage", [
        pytest.param(lambda path: _truncate(path, HEADER_BYTES + 3),
                     id="truncated-payload"),
        pytest.param(lambda path: _truncate(path, 20), id="truncated-header"),
        pytest.param(lambda path: _flip(path, HEADER_BYTES + 2),
                     id="flipped-payload-byte"),
        pytest.param(lambda path: _flip(path, 20), id="flipped-digest"),
        pytest.param(lambda path: _flip(path, 0), id="flipped-magic"),
    ])
    def test_reported_removed_and_read_as_a_miss(self, cas, damage):
        path = cas.put(KEY, b"a payload worth keeping")
        damage(path)
        with pytest.warns(StoreWarning) as caught:
            assert cas.get(KEY) is None
        assert len(caught) == 1
        assert path in str(caught[0].message)
        assert not os.path.exists(path)
        # The caller recomputes and rewrites; the next read is clean.
        cas.put(KEY, b"a payload worth keeping")
        assert cas.get(KEY) == b"a payload worth keeping"

    def test_unreadable_entry_is_reported(self, cas):
        path = cas.put(KEY, b"x")
        os.unlink(path)
        os.mkdir(path)  # reading a directory fails with an OSError
        with pytest.warns(StoreWarning, match="unreadable"):
            assert cas.get(KEY) is None


class TestFailedPut:
    def test_enospc_is_reported_and_leaves_no_temp_file(
        self, cas, monkeypatch
    ):
        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "replace", full_disk)
        with pytest.warns(StoreWarning, match="No space left") as caught:
            assert cas.put(KEY, b"x") is None
        assert cas.path(KEY) in str(caught[0].message)
        monkeypatch.undo()
        shard = os.path.dirname(cas.path(KEY))
        assert os.listdir(shard) == []
        assert cas.get(KEY) is None

    def test_unwritable_root_is_reported(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_bytes(b"")
        cas = ContentStore(str(blocker / "store"), ".bin")
        with pytest.warns(StoreWarning, match="write failed"):
            assert cas.put(KEY, b"x") is None


class TestRetention:
    def test_evict_is_lru_and_never_drops_keep(self, cas):
        keys = [c * 2 + "0" * 62 for c in "abc"]
        paths = [cas.put(key, b"x" * 100) for key in keys]
        for age, path in enumerate(paths):
            os.utime(path, (age + 1, age + 1))
        assert cas.get(keys[0], touch=True) is not None  # now the freshest
        assert cas.evict(250, keep=paths[1]) == 1
        assert [os.path.exists(path) for path in paths] == [True, True, False]
        # Over budget on its own, the kept entry still stays.
        assert cas.evict(10, keep=paths[1]) == 1
        assert os.path.exists(paths[1])

    def test_delete_and_clear(self, cas):
        cas.put(KEY, b"x")
        cas.put("cd" + "0" * 62, b"y")
        assert cas.delete(KEY) is True
        assert cas.delete(KEY) is False
        assert cas.clear() == 1
        assert cas.entries() == []

"""Golden provenance: the obs-on certificate JSON of a full derivation.

Certifies the ticket-lock stack (Python specs) and a two-client Thm 2.2
game with observability and profiling on and a fresh certificate cache,
so every provenance block (``coverage``, ``profile``, ``reduction``,
``incremental``) appears somewhere in the tree.  Wall-clock and
worker-count fields are stripped; everything else must equal the
committed golden file, serially and with two pinned workers.  The
golden file is the serial run's text; a change that means to alter
provenance rewrites it from ``_certify`` and says so.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import obs
from repro.envflags import pinned

GOLDEN = Path(__file__).with_name("golden_provenance.json")

#: Fields that depend on the clock, the worker count or process-local
#: counters rather than on what was checked.
VOLATILE = frozenset({"wall_time_s", "wall_us", "metrics", "workers", "replay_cache"})

CLIENTS = [
    {1: [("acq", ("L",)), ("rel", ("L",))], 2: [("acq", ("L",))]},
    {1: [("acq", ("L",))], 2: [("acq", ("L",)), ("rel", ("L",))]},
]


def _strip(value):
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k not in VOLATILE}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


def _certify(tmp_path, monkeypatch, jobs):
    from repro.core import check_soundness
    from repro.objects.ticket_lock import certify_ticket_lock

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / f"cache-{jobs}"))
    monkeypatch.setenv("REPRO_REDUCE", "on")
    with obs.profiling(), pinned(jobs=jobs):
        stack = certify_ticket_lock([1, 2], use_c_source=False)
        soundness = check_soundness(
            stack.composed, clients=CLIENTS, max_rounds=12,
            require_progress=False,
        )
    document = {
        "lock_stack": stack.composed.certificate.to_json(),
        "soundness": soundness.to_json(),
    }
    return json.dumps(
        _strip(document), sort_keys=True, ensure_ascii=False, indent=1,
    ) + "\n"


def _blocks(node, found):
    found.update((node.get("provenance") or {}).keys())
    for child in node.get("children") or []:
        _blocks(child, found)
    return found


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "jobs2"])
def test_provenance_matches_golden(jobs, tmp_path, monkeypatch):
    text = _certify(tmp_path, monkeypatch, jobs)
    document = json.loads(text)
    blocks = _blocks(document["lock_stack"], set())
    blocks |= _blocks(document["soundness"], set())
    assert {"coverage", "profile", "reduction", "incremental"} <= blocks
    assert text == GOLDEN.read_text(encoding="utf-8")

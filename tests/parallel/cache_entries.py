"""Fill a cache with the ``incremental_edit`` stacks and print its entries.

    PYTHONPATH=src REPRO_CACHE_DIR=DIR python tests/parallel/cache_entries.py [--history]

Certifies the ticket lock (Python specs) on CPUs [1, 2], the MCS lock and
the shared queue on [1, 2, 3] and the 14-round MCS Thm 2.2 game against
``$REPRO_CACHE_DIR``, then prints the name of every cache entry, one a
line, sorted.  An entry's name is its key.

``--history`` first fingerprints the Fig. 5 stack's inputs (it runs
``run_stack("fig5")`` against a throwaway cache) and then certifies the
stacks in reverse order, so the encoder's chunk store and the event pool
fill in another order.  Two fresh interpreters, one with ``--history``,
each against its own empty directory, must print the same names: keys
may depend on what was verified, never on process history or hash seed.

``test_canonical.py`` checks the keys of the same stacks against the
reference encoder; both take them from :func:`certify_stacks`.
"""

from __future__ import annotations

import os
import sys
import tempfile

from repro.core import check_soundness
from repro.objects.mcs_lock import certify_mcs_lock
from repro.objects.shared_queue import certify_shared_queue
from repro.objects.ticket_lock import certify_ticket_lock
from repro.serve.protocol import run_stack

#: One acquire/release per thread: the Thm 2.2 client of the MCS game.
CLIENT = [{tid: [("acq", ("q0",)), ("rel", ("q0",))] for tid in (1, 2)}]


def certify_stacks(reverse: bool = False) -> list:
    """The certificates of the ticket lock, the MCS lock, the shared queue
    and the MCS game, certified in that order, or with ``reverse`` the
    other way round (the game's MCS lock first)."""

    def ticket():
        return certify_ticket_lock([1, 2], lock="q0", use_c_source=False).composed

    def mcs():
        return certify_mcs_lock([1, 2, 3], lock="q0").composed

    def queue():
        return certify_shared_queue([1, 2, 3], queue="rdq")["composed"]

    def game(layer):
        return check_soundness(
            layer, clients=CLIENT, max_rounds=14, require_progress=False
        )

    if reverse:
        layer = mcs()
        played = game(layer)
        shared = queue()
        return [ticket().certificate, layer.certificate, shared.certificate, played]
    first, layer, shared = ticket(), mcs(), queue()
    return [first.certificate, layer.certificate, shared.certificate, game(layer)]


def main(argv) -> int:
    cache = os.environ.get("REPRO_CACHE_DIR")
    if not cache:
        print("set REPRO_CACHE_DIR to an empty directory", file=sys.stderr)
        return 2
    if argv == ["--history"]:
        with tempfile.TemporaryDirectory() as elsewhere:
            os.environ["REPRO_CACHE_DIR"] = elsewhere
            fig5 = run_stack("fig5")
            os.environ["REPRO_CACHE_DIR"] = cache
        if not fig5["ok"]:
            print("the Fig. 5 stack failed", file=sys.stderr)
            return 1
    elif argv:
        print(__doc__, file=sys.stderr)
        return 2
    if not all(cert.ok for cert in certify_stacks(reverse=bool(argv))):
        print("a certificate failed", file=sys.stderr)
        return 1
    names = sorted(
        name for _dir, _subdirs, files in os.walk(cache) for name in files
    )
    if not names:
        print(f"no cache entry under {cache}", file=sys.stderr)
        return 1
    print("\n".join(names))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

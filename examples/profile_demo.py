#!/usr/bin/env python3
"""Profile a verification run: redundancy, flamegraphs, live progress.

Runs the ticket-lock derivation and the Thm 2.2 soundness game with the
deep state-space profiler (:mod:`repro.obs.profile`) enabled, then

1. streams live progress heartbeats to ``profile.heartbeat.jsonl``
   (follow from another terminal with
   ``python -m repro.obs watch profile.heartbeat.jsonl``),
2. exports the span tree as a flamegraph — ``profile.collapsed`` for
   ``flamegraph.pl`` and ``profile.speedscope.json`` to drop onto
   https://www.speedscope.app,
3. prints the measured redundancy per enumeration axis (the headroom
   left for reduction), the per-obligation attribution from
   certificate provenance, and the fork-pool utilization rollup.

Profiling is *off by default* and changes nothing about what is
verified; with it off, certificates are byte-identical to an
unprofiled build.

Run:  PYTHONPATH=src python examples/profile_demo.py [output-prefix]
"""

import sys

from repro import obs
from repro.core import check_soundness
from repro.objects.ticket_lock import certify_ticket_lock


def main():
    prefix = sys.argv[1] if len(sys.argv) > 1 else "profile"
    heartbeat_path = f"{prefix}.heartbeat.jsonl"

    obs.start_heartbeat(heartbeat_path)
    with obs.profiling():
        stack = certify_ticket_lock([1, 2], lock="q0")
        soundness = check_soundness(
            stack.composed,
            clients=[{1: [("acq", ("q0",)), ("rel", ("q0",))],
                      2: [("acq", ("q0",)), ("rel", ("q0",))]}],
            max_rounds=20,
            require_progress=False,
        )
        collapsed = obs.write_collapsed(f"{prefix}.collapsed")
        speedscope = obs.write_speedscope(
            f"{prefix}.speedscope.json", "ticket-lock + soundness"
        )
        redundancy = obs.profiler().redundancy_map()
        utilization = obs.profiler().pool_utilization()
    obs.stop_heartbeat()

    assert stack.composed.certificate.ok
    assert soundness.ok

    print("=" * 72)
    print("measured redundancy per enumeration axis")
    print("=" * 72)
    for axis, record in redundancy.items():
        print(
            f"{axis}: explored={record['explored']} "
            f"distinct={record['distinct']} replayed={record['replayed']} "
            f"ratio={record['ratio']:.1%}"
        )

    print()
    print("=" * 72)
    print("per-obligation attribution (soundness certificate provenance)")
    print("=" * 72)
    profile = soundness.provenance["profile"]
    print(f"judgment redundancy: {profile['redundancy']['ratio']:.1%}")
    for entry in profile["obligations"]:
        print(
            f"  {entry['obligation']}: {entry['states']} states, "
            f"{entry['wall_us'] / 1e6:.2f}s, redundancy {entry['ratio']:.1%}"
        )

    if utilization:
        print()
        print(f"pool utilization: {utilization}")

    print()
    print(f"heartbeat stream: {heartbeat_path} "
          f"(render: python -m repro.obs watch --no-follow {heartbeat_path})")
    print(f"collapsed stacks: {collapsed} (flamegraph.pl input)")
    print(f"speedscope profile: {speedscope} — import at "
          "https://www.speedscope.app")


if __name__ == "__main__":
    main()

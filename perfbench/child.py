"""One fresh-interpreter step of the benchmark: ``python child.py '<spec>'``.

``spec["mode"]`` selects what the process does:

* ``sample`` — certify one engine workload (``spec["workload"]``) and
  serialize its certificates; ``spec["trace"]`` wraps the layer
  boundaries first, ``spec["edit"]`` is the ``incremental_edit``
  constant (``None`` fills the cache with the unedited stack);
* ``probe`` — certify the ticket lock with a broken ``rel`` (``rel``
  without ``push``); the verdict must be a failure;
* ``stacks`` — ``run_stack`` each of ``spec["jobs"]`` and digest the
  bytes the daemon would serve for it.

The last line of stdout is one JSON document.  Times come from
``time.monotonic``, which is one clock across processes, so the parent
can subtract its spawn time from ``ready``.  A sample times the host
reference loop right before and right after the verification, in the
same process, so the parent can scale the sample to a fixed host speed.
"""

import hashlib
import json
import sys
import time

# Imported before ``ready`` in every sample: interpreter start plus these
# imports is the set-up a cold command-line run pays.
import repro.compiler  # the fig5 stack imports it lazily
from repro.core import check_soundness
from repro.objects.mcs_lock import certify_mcs_lock
from repro.objects.qlock import check_qlock_correctness
from repro.objects.sched import CpuMap
from repro.objects.shared_queue import certify_shared_queue
from repro.parallel.cache import incremental_collector
from repro.serve.protocol import result_bytes, run_stack
import repro.objects.ticket_lock as ticket_lock
from hostref import host_reference

READY = time.monotonic()

#: One acquire/release per thread, the Thm 2.2 client of every game here.
CLIENT = [{tid: [("acq", ("q0",)), ("rel", ("q0",))] for tid in (1, 2)}]

#: ``rel`` with one bytecode constant changed: the edit of
#: ``incremental_edit``.  Callees are globals of the function so its
#: dependency slice stays exact.
EDITED_REL = """
def rel_impl(ctx, lock):
    yield from ctx.call(PUSH, lock)
    yield from ctx.call(FAI, n_cell(lock))
    _edited = {constant}
    return None
"""


def canonical(certificates):
    """Sorted-key JSON of each certificate's ``to_json()``."""
    return json.dumps(
        {name: cert.to_json() for name, cert in certificates.items()},
        sort_keys=True,
    ).encode("utf-8")


def fig5_cold(spec):
    result = run_stack("fig5")
    return result["ok"], result_bytes(result)


def table2_cold(spec):
    mcs = certify_mcs_lock([1, 2, 3], lock="q0")
    queue = certify_shared_queue([1, 2, 3], queue="rdq")
    qlock = check_qlock_correctness(CpuMap({1: 0, 2: 1}), {0: 1, 1: 2}, lock=5)
    game = check_soundness(
        mcs.composed, clients=CLIENT, max_rounds=14, require_progress=False
    )
    certificates = {
        "mcs": mcs.composed.certificate,
        "queue": queue["composed"].certificate,
        "qlock": qlock,
        "soundness": game,
    }
    return all(c.ok for c in certificates.values()), canonical(certificates)


def edited_rel(constant):
    namespace = {
        "__name__": "perfbench.edit",
        "PUSH": ticket_lock.PUSH,
        "FAI": ticket_lock.FAI,
        "n_cell": ticket_lock.n_cell,
    }
    exec(EDITED_REL.format(constant=constant), namespace)
    return namespace["rel_impl"]


def incremental_edit(spec):
    if spec["edit"] is not None:
        ticket_lock.rel_impl = edited_rel(spec["edit"])
    ticket = ticket_lock.certify_ticket_lock([1, 2], lock="q0", use_c_source=False)
    mcs = certify_mcs_lock([1, 2, 3], lock="q0")
    queue = certify_shared_queue([1, 2, 3], queue="rdq")
    game = check_soundness(
        mcs.composed, clients=CLIENT, max_rounds=14, require_progress=False
    )
    certificates = {
        "ticket": ticket.composed.certificate,
        "mcs": mcs.composed.certificate,
        "queue": queue["composed"].certificate,
        "soundness": game,
    }
    return all(c.ok for c in certificates.values()), canonical(certificates)


WORKLOADS = {
    "fig5_cold": fig5_cold,
    "table2_cold": table2_cold,
    "incremental_edit": incremental_edit,
}


def replay_totals():
    from repro.core.replay import replay_cache_info

    info = replay_cache_info().values()
    return sum(e["hits"] for e in info), sum(e["misses"] for e in info)


def sample(spec):
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    hits, misses = replay_totals()
    refs = [host_reference()]
    with incremental_collector() as counts:
        started = time.perf_counter()
        ok, data = WORKLOADS[spec["workload"]](spec)
        verify_s = time.perf_counter() - started
    refs.append(host_reference())
    hits_after, misses_after = replay_totals()
    document = {
        "ready": READY,
        "host_ref": refs,
        "verify_s": verify_s,
        "ok": ok,
        "digest": hashlib.sha256(data).hexdigest(),
        "counts": dict(counts),
        "replay": {"hits": hits_after - hits, "misses": misses_after - misses},
    }
    if tracer is not None:
        document["layers"] = tracer.summary()
        document["distinct_behaviours"] = tracer.distinct_behaviours
        if spec.get("trace_out"):
            tracer.write(spec["trace_out"], workload=spec["workload"])
    return document


def probe(spec):
    """The broken ``rel`` of ``examples/forensics_demo.py`` under Fun*."""
    from repro.core.calculus import module_rule
    from repro.core.errors import VerificationError
    from repro.core.events import ACQ, REL
    from repro.core.module import FuncImpl, Module
    from repro.core.relation import ID_REL
    from repro.core.simulation import SimConfig
    from repro.machine.atomics import FAI

    def broken_rel(ctx, lock):
        yield from ctx.call(FAI, ticket_lock.n_cell(lock))
        return None

    domain, lock = [1, 2], "q0"
    base = ticket_lock.lx86_like_interface(
        domain, 32,
        ticket_lock.lock_rely(domain, [lock]),
        ticket_lock.lock_guarantee(domain, [lock]),
    )
    module = Module(
        {
            ACQ: FuncImpl(ACQ, ticket_lock.acq_impl, lang="spec"),
            REL: FuncImpl(REL, broken_rel, lang="spec"),
        },
        name="M_broken_rel",
    )
    config = SimConfig(
        env_alphabet=ticket_lock.low_env_alphabet([2], [lock]),
        env_depth=1,
        fuel=2_000,
        delivery="per_query",
    )
    try:
        layer = module_rule(
            base, module, ticket_lock.lock_low_interface(base), ID_REL, 1,
            ticket_lock.lock_scenarios(lock, config),
        )
        certificate = layer.certificate
    except VerificationError as error:
        certificate = error.certificate
    return {"ok": certificate.ok}


def stacks(spec):
    return {
        "digests": [
            hashlib.sha256(result_bytes(run_stack(stack, params))).hexdigest()
            for stack, params in spec["jobs"]
        ]
    }


def main():
    spec = json.loads(sys.argv[1])
    document = {"sample": sample, "probe": probe, "stacks": stacks}[spec["mode"]](spec)
    print(json.dumps(document))


if __name__ == "__main__":
    main()

"""The ``repro.serve`` wire protocol: job specs, fingerprints, execution.

A *job* asks the daemon to certify one registered layer stack.  The
submission document (schema ``repro.serve/job/v1``) is plain JSON::

    {"stack": "ticket", "params": {"domain": [1, 2], "lock": "q0"},
     "tenant": "ci", "priority": 5}

``stack`` names an entry of :data:`STACKS`; ``params`` are
stack-specific keyword arguments, validated against the stack's
whitelist and normalized (lists become tuples, defaults are filled in)
so that *semantically identical submissions normalize to identical
specs*.  The job fingerprint is the :func:`canonical_fingerprint` of
the normalized spec plus ``ENGINE_VERSION`` — the same content-address
discipline as the CLI certificate cache, so in-flight dedup and the
served certificate store key on *what is being verified*, never on who
asked or when.

Execution (:func:`execute_job`) happens inside a resident worker
(:mod:`repro.serve.pool`) and upholds the determinism contract across
the wire: observability is forced off, the run is serial from the
engine's point of view (nested fan-outs degrade inside the worker),
and the result document's
canonical bytes are exactly what a ``run_stack`` call in a fresh CLI
process produces.  Progress streams through the job's heartbeat file
(``repro.obs/heartbeat/v1``) and a completed verification appends one
run-ledger record, so service traffic shows up in ``repro.obs
history``/``regress``/``dashboard`` like any other run.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

JOB_SCHEMA = "repro.serve/job/v1"
RESULT_SCHEMA = "repro.serve/result/v1"
METRICS_SCHEMA = "repro.serve/metrics/v1"

DEFAULT_TENANT = "public"

#: Priorities are small ints; higher runs earlier.
MIN_PRIORITY, MAX_PRIORITY = -100, 100


class JobError(ValueError):
    """A malformed submission (HTTP 400)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise JobError(message)


def _norm_domain(value: Any) -> Tuple[int, ...]:
    _require(
        isinstance(value, (list, tuple))
        and value
        and all(isinstance(t, int) and not isinstance(t, bool) for t in value),
        "params.domain must be a non-empty list of ints",
    )
    _require(len(set(value)) == len(value), "params.domain has duplicates")
    return tuple(value)


def _norm_name(value: Any) -> str:
    _require(isinstance(value, str) and value, "expected a non-empty string")
    return value


def _norm_posint(value: Any) -> int:
    _require(
        isinstance(value, int) and not isinstance(value, bool) and value > 0,
        "expected a positive int",
    )
    return value


def _norm_bool(value: Any) -> bool:
    _require(isinstance(value, bool), "expected a bool")
    return value


#: Per-stack parameter whitelist: name → (normalizer, default).
_LOCK_PARAMS: Dict[str, Tuple[Callable[[Any], Any], Any]] = {
    "domain": (_norm_domain, (1, 2)),
    "lock": (_norm_name, "q0"),
    "env_depth": (_norm_posint, 2),
    "fuel": (_norm_posint, 2_000),
    "use_c_source": (_norm_bool, True),
}


def _run_ticket(params: Dict[str, Any]) -> List[Tuple[str, Any]]:
    from ..objects.ticket_lock import certify_ticket_lock

    stack = certify_ticket_lock(
        list(params["domain"]),
        lock=params["lock"],
        env_depth=params["env_depth"],
        fuel=params["fuel"],
        use_c_source=params["use_c_source"],
    )
    return [("lock_stack", stack.composed.certificate)]


def _run_mcs(params: Dict[str, Any]) -> List[Tuple[str, Any]]:
    from ..objects.mcs_lock import certify_mcs_lock

    stack = certify_mcs_lock(
        list(params["domain"]),
        lock=params["lock"],
        env_depth=params["env_depth"],
        fuel=params["fuel"],
        use_c_source=params["use_c_source"],
    )
    return [("lock_stack", stack.composed.certificate)]


def _run_queue(params: Dict[str, Any]) -> List[Tuple[str, Any]]:
    from ..objects.shared_queue import certify_shared_queue

    result = certify_shared_queue(
        list(params["domain"]),
        queue=params["queue"],
        env_depth=params["env_depth"],
        fuel=params["fuel"],
        use_c_source=params["use_c_source"],
        capacity=params["capacity"],
    )
    return [("queue_stack", result["composed"].certificate)]


def _run_fig5(params: Dict[str, Any]) -> List[Tuple[str, Any]]:
    """The paper's Fig. 5 pipeline, end to end (§9's CI workload unit).

    Mirrors ``benchmarks/bench_fig5_pipeline.run_pipeline`` stage for
    stage: the ticket-lock derivation, the shared queue over the lock
    layer, thread-safe CompCertX validation, and the Thm 2.2 soundness
    game over the composed stack.
    """
    from ..compiler import compile_and_validate
    from ..core import SimConfig, check_soundness
    from ..machine import lx86_interface
    from ..objects.shared_queue import certify_shared_queue
    from ..objects.ticket_lock import (
        certify_ticket_lock,
        lock_guarantee,
        lock_rely,
        low_env_alphabet,
        ticket_lock_unit,
    )

    domain = list(params["domain"])
    lock = params["lock"]
    queue = params["queue"]
    stack = certify_ticket_lock(domain, lock=lock)
    queue_stack = certify_shared_queue(domain, queue=queue)
    base = lx86_interface(
        domain,
        rely=lock_rely(domain, [lock]),
        guar=lock_guarantee(domain, [lock]),
    )
    cfg = SimConfig(
        env_alphabet=low_env_alphabet(domain[1:], [lock]), env_depth=1, fuel=500
    )
    _asm, compile_cert = compile_and_validate(
        base,
        ticket_lock_unit(),
        domain[0],
        [("acq", [("acq", (lock,))], cfg),
         ("acq_rel", [("acq", (lock,)), ("rel", (lock,))], cfg)],
    )
    soundness = check_soundness(
        stack.composed,
        clients=[{tid: [("acq", (lock,)), ("rel", (lock,))] for tid in domain}],
        max_rounds=params["max_rounds"],
        require_progress=False,
    )
    return [
        ("lock_stack", stack.composed.certificate),
        ("queue_stack", queue_stack["composed"].certificate),
        ("compile", compile_cert),
        ("soundness", soundness),
    ]


#: The registry of layer stacks the daemon can certify.
STACKS: Dict[str, Dict[str, Any]] = {
    "ticket": {"runner": _run_ticket, "params": dict(_LOCK_PARAMS)},
    "mcs": {
        "runner": _run_mcs,
        "params": {
            "domain": (_norm_domain, (1, 2)),
            "lock": (_norm_name, "q0"),
            "env_depth": (_norm_posint, 2),
            "fuel": (_norm_posint, 3_000),
            "use_c_source": (_norm_bool, True),
        },
    },
    "queue": {
        "runner": _run_queue,
        "params": {
            "domain": (_norm_domain, (1, 2)),
            "queue": (_norm_name, "rdq"),
            "env_depth": (_norm_posint, 2),
            "fuel": (_norm_posint, 4_000),
            "use_c_source": (_norm_bool, True),
            "capacity": (_norm_posint, 8),
        },
    },
    "fig5": {
        "runner": _run_fig5,
        "params": {
            "domain": (_norm_domain, (1, 2)),
            "lock": (_norm_name, "q0"),
            "queue": (_norm_name, "rdq"),
            "max_rounds": (_norm_posint, 20),
        },
    },
}


def parse_job(document: Any) -> Dict[str, Any]:
    """Validate and normalize one submission into a job spec.

    Returns ``{"stack", "params", "tenant", "priority"}`` with params
    fully defaulted and normalized.  Raises :class:`JobError` on any
    malformation — unknown stack, unknown or ill-typed parameter,
    out-of-range priority, bad tenant.
    """
    _require(isinstance(document, dict), "job document must be a JSON object")
    stack = document.get("stack")
    _require(isinstance(stack, str), "job.stack must be a string")
    _require(stack in STACKS, f"unknown stack {stack!r} "
             f"(registered: {', '.join(sorted(STACKS))})")
    raw_params = document.get("params", {})
    _require(isinstance(raw_params, dict), "job.params must be an object")
    spec = STACKS[stack]["params"]
    unknown = sorted(set(raw_params) - set(spec))
    _require(not unknown, f"unknown params for stack {stack!r}: "
             f"{', '.join(unknown)}")
    params: Dict[str, Any] = {}
    for name, (normalize, default) in spec.items():
        if name in raw_params:
            try:
                params[name] = normalize(raw_params[name])
            except JobError as error:
                raise JobError(f"params.{name}: {error}") from None
        else:
            params[name] = default

    tenant = document.get("tenant", DEFAULT_TENANT)
    _require(
        isinstance(tenant, str)
        and 0 < len(tenant) <= 64
        and not tenant.startswith(".")
        and tenant.replace("-", "").replace("_", "").replace(".", "").isalnum(),
        "job.tenant must be a short name ([A-Za-z0-9._-], max 64 chars, "
        "no leading '.')",
    )
    priority = document.get("priority", 0)
    _require(
        isinstance(priority, int) and not isinstance(priority, bool)
        and MIN_PRIORITY <= priority <= MAX_PRIORITY,
        f"job.priority must be an int in [{MIN_PRIORITY}, {MAX_PRIORITY}]",
    )
    return {
        "stack": stack,
        "params": params,
        "tenant": tenant,
        "priority": priority,
    }


def job_fingerprint(spec: Dict[str, Any]) -> str:
    """The content address of a job: what is verified, not who asked.

    Tenant and priority are deliberately excluded — two tenants
    submitting the same stack share in-flight work (each still gets a
    certificate in its *own* store namespace).  ``ENGINE_VERSION``
    folds in checker semantics, so a daemon restarted on a new engine
    never serves stale certificates.
    """
    from ..parallel.cache import ENGINE_VERSION
    from ..parallel.canonical import canonical_fingerprint

    return canonical_fingerprint(
        (JOB_SCHEMA, ENGINE_VERSION, spec["stack"], spec["params"])
    )


def run_stack(stack: str, params: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Certify ``stack`` locally and return the result document.

    This is the CLI half of the determinism-across-the-wire contract:
    ``result_bytes(run_stack(s, p))`` in a fresh obs-off process equals
    the bytes the daemon serves for the same submission.
    """
    spec = parse_job({"stack": stack, "params": dict(params or {})})
    certificates = STACKS[stack]["runner"](spec["params"])
    return build_result(spec, certificates)


def build_result(
    spec: Dict[str, Any], certificates: List[Tuple[str, Any]]
) -> Dict[str, Any]:
    """The result document for a completed verification."""
    return {
        "schema": RESULT_SCHEMA,
        "stack": spec["stack"],
        "params": _jsonable(spec["params"]),
        "ok": all(cert.ok for _name, cert in certificates),
        "certificates": {name: cert.to_json() for name, cert in certificates},
    }


def result_bytes(result: Dict[str, Any]) -> bytes:
    """Canonical wire bytes of a result document (sorted keys, UTF-8)."""
    return json.dumps(result, sort_keys=True, ensure_ascii=False).encode("utf-8")


def _jsonable(value: Any) -> Any:
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def execute_job(descriptor: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job inside a resident worker; returns the shippable payload.

    ``descriptor`` carries ``{"job", "stack", "params", "events_path",
    "ledger_dir"}`` — plain data, which is what lets jobs reach
    long-lived workers over a pickle boundary.  The payload is
    ``{"ok", "bytes", "wall_s", "obligations", "error"?}``; a failing
    *verification* still produces result bytes (the failing certificate
    is evidence, exactly as the CLI cache stores failing certs), while
    an internal error produces ``ok=False`` with no bytes.
    """
    from .. import obs
    from ..core.errors import VerificationError
    from ..obs import heartbeat as beat, start_heartbeat, stop_heartbeat
    from ..obs.store import disable_ledger, ledger
    from ..parallel.cache import incremental_collector

    # Determinism across the wire: served certificates are obs-off
    # serial bytes.  Progress still streams (heartbeats are independent
    # of obs) and the ledger records the run (armed below, obs-off safe).
    obs.disable_profiling()
    obs.disable()
    disable_ledger(flush=False)

    events_path = descriptor.get("events_path")
    if events_path:
        start_heartbeat(events_path, truncate=False)
        beat("verify", force=True, job=descriptor.get("job"))

    started = time.perf_counter()
    payload: Dict[str, Any]
    try:
        spec = parse_job(
            {"stack": descriptor["stack"],
             "params": descriptor.get("params", {})}
        )
        ledger_dir = descriptor.get("ledger_dir")
        # Obligation-cache reuse is counted ambiently (certificates stay
        # obs-off bytes) and shipped alongside the payload for /metrics.
        with incremental_collector() as inc_counts:
            if ledger_dir:
                with ledger(ledger_dir, object=f"serve/{spec['stack']}"):
                    certificates = STACKS[spec["stack"]]["runner"](spec["params"])
            else:
                certificates = STACKS[spec["stack"]]["runner"](spec["params"])
        result = build_result(spec, certificates)
        payload = {
            "ok": result["ok"],
            "bytes": result_bytes(result),
            "wall_s": time.perf_counter() - started,
            "obligations": sum(
                cert.obligation_count() for _name, cert in certificates
            ),
        }
        if any(inc_counts.values()):
            payload["incremental"] = dict(inc_counts)
    except VerificationError as error:
        # A certified-layer constructor refused a failing certificate:
        # the verification *ran*; serve the failing evidence.
        certificate = getattr(error, "certificate", None)
        result = {
            "schema": RESULT_SCHEMA,
            "stack": spec["stack"],
            "params": _jsonable(spec["params"]),
            "ok": False,
            "error": str(error),
            "certificates": (
                {"failed": certificate.to_json()} if certificate is not None else {}
            ),
        }
        payload = {
            "ok": False,
            "bytes": result_bytes(result),
            "wall_s": time.perf_counter() - started,
            "error": str(error),
        }
    except Exception as error:  # noqa: BLE001 - shipped to the caller
        payload = {
            "ok": False,
            "bytes": None,
            "wall_s": time.perf_counter() - started,
            "error": f"{type(error).__name__}: {error}",
        }
    if events_path:
        stop_heartbeat(
            status="done" if payload.get("bytes") is not None else "failed",
            job=descriptor.get("job"),
            ok=payload["ok"],
        )
    return payload

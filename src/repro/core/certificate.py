"""Certificates: the mechanized proof objects of this reproduction.

The Coq development attaches "a mechanized proof object showing that the
layer implementation M ... faithfully implements the desirable interface
L2" to every certified layer.  Python cannot carry Coq proofs, so a
:class:`Certificate` records instead *exactly what was checked*: every
discharged obligation, the generator bounds (environment depth, fuel,
argument families), and the universe of logs encountered (reused by the
``Compat`` rule to check rely/guarantee implications).

The kernel discipline is preserved by convention and constructor checks:
:class:`CertifiedLayer` raises unless its certificate is entirely
successful, and the only functions in this library that build
certificates for layer judgments are the rule functions in
:mod:`repro.core.calculus` and the checkers in
:mod:`repro.core.simulation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..obs import obs_enabled
from ..obs.blocks import compose_blocks
from ..obs.metrics import MetricsWindow, inc
from ..obs.store import note_certificate
from .errors import VerificationError
from .interface import LayerInterface
from .log import Log
from .module import Module
from .relation import SimRel


@dataclass
class Obligation:
    """One discharged (or failed) proof obligation.

    ``evidence`` is the optional structured failure record: a dict whose
    ``"counterexample"`` key (when present) holds a
    :class:`~repro.obs.forensics.Counterexample` — the shrunken failing
    schedule, environment moves and divergence point — so a failed
    certificate carries *replayable* diagnosis, not just a message.
    """

    description: str
    ok: bool
    details: str = ""
    evidence: Optional[Dict[str, Any]] = None

    @property
    def counterexample(self):
        """The attached counterexample, if forensics captured one."""
        return (self.evidence or {}).get("counterexample")

    def digest(self) -> str:
        """One line of the strongest evidence this obligation carries."""
        counterexample = self.counterexample
        if counterexample is not None and hasattr(counterexample, "digest"):
            return counterexample.digest()
        return self.details or ("ok" if self.ok else "no evidence captured")

    def __repr__(self):
        mark = "✓" if self.ok else "✗"
        return f"{mark} {self.description}" + (f" — {self.details}" if self.details else "")


@dataclass
class Certificate:
    """Evidence for one checked judgment.

    ``bounds`` records the exploration limits (the honesty ledger of the
    bounded-exhaustive substitution, DESIGN.md §4).  ``log_universe``
    collects every log seen while checking; ``children`` are the
    certificates of sub-judgments (premises of calculus rules).

    ``provenance`` is the optional observability annotation (see
    :mod:`repro.obs`): when a judgment is checked with observability
    enabled, the checker stamps per-rule wall time, exploration counts
    (environment contexts, runs, scheduler rounds) and a metric-delta
    snapshot here, turning the certificate into a self-describing audit
    artifact.  It is ``None`` on the disabled fast path and never
    affects validity (:attr:`ok` ignores it).
    """

    judgment: str
    rule: str
    obligations: List[Obligation] = field(default_factory=list)
    bounds: Dict[str, Any] = field(default_factory=dict)
    log_universe: Tuple[Log, ...] = ()
    children: List["Certificate"] = field(default_factory=list)
    provenance: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.obligations) and all(
            c.ok for c in self.children
        )

    @property
    def failures(self) -> List[Obligation]:
        out = [o for o in self.obligations if not o.ok]
        for child in self.children:
            out.extend(child.failures)
        return out

    def obligation_count(self) -> int:
        return len(self.obligations) + sum(
            c.obligation_count() for c in self.children
        )

    def all_logs(self) -> Tuple[Log, ...]:
        logs: List[Log] = list(self.log_universe)
        for child in self.children:
            logs.extend(child.all_logs())
        return tuple(logs)

    def require_ok(self) -> "Certificate":
        if not self.ok:
            failed = self.failures
            preview = "\n".join(f"  {o!r}" for o in failed[:5])
            error = VerificationError(
                f"judgment {self.judgment!r} [{self.rule}] has "
                f"{len(failed)} failed obligation(s):\n{preview}"
            )
            # Keep the full certificate (and its counterexamples)
            # reachable from the raised error for forensic tooling.
            error.certificate = self
            raise error
        return self

    def add(
        self,
        description: str,
        ok: bool,
        details: str = "",
        evidence: Optional[Dict[str, Any]] = None,
    ) -> Obligation:
        obligation = Obligation(description, ok, details, evidence)
        self.obligations.append(obligation)
        if obs_enabled():
            inc("cert.obligations_discharged" if ok else "cert.obligations_failed")
            if evidence and "counterexample" in evidence:
                inc("cert.counterexamples_captured")
        return obligation

    def counterexamples(self) -> List[Any]:
        """Every counterexample attached anywhere in this tree."""
        out = [
            o.counterexample for o in self.obligations
            if o.counterexample is not None
        ]
        for child in self.children:
            out.extend(child.counterexamples())
        return out

    def summary(self, max_failures: int = 3) -> str:
        """The one-line status; failed certificates add evidence digests.

        Each failed obligation contributes one line carrying its
        counterexample digest (shrunk schedule + first divergent event)
        when forensics captured one, the bare details string otherwise.
        """
        status = "OK" if self.ok else "FAILED"
        head = (
            f"[{status}] {self.judgment} ({self.rule}): "
            f"{self.obligation_count()} obligations, bounds={self.bounds}"
        )
        if self.ok:
            return head
        failed = self.failures
        lines = [head]
        for obligation in failed[:max_failures]:
            lines.append(f"  ✗ {obligation.description} — {obligation.digest()}")
        if len(failed) > max_failures:
            lines.append(f"  … and {len(failed) - max_failures} more failures")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        """The whole certificate tree as JSON-ready data.

        The schema consumed by ``python -m repro.obs explain``:
        obligations keep their structured evidence (counterexamples
        serialize via ``to_dict``), provenance (including the coverage
        map) passes through, children recurse.
        """
        return {
            "schema": "repro.cert/v1",
            "judgment": self.judgment,
            "rule": self.rule,
            "ok": self.ok,
            "bounds": _jsonable(self.bounds),
            "log_universe": len(self.log_universe),
            "provenance": _jsonable(self.provenance),
            "obligations": [
                {
                    "description": o.description,
                    "ok": o.ok,
                    "details": o.details,
                    "evidence": _jsonable(o.evidence),
                }
                for o in self.obligations
            ],
            "children": [child.to_json() for child in self.children],
        }

    def canonical_bytes(self) -> bytes:
        """The wire serialization of this certificate tree.

        Canonical JSON — sorted keys, no ASCII escaping, UTF-8 — of
        :meth:`to_json`.  This is the byte string the determinism
        contract quantifies over: serial, N-worker, cache-warm and
        ``repro.serve``-served runs of the same judgment must produce
        *these exact bytes* (observability off).  Benchmarks, the
        equivalence suites and the serve daemon's content-addressed
        store all compare and store this form.
        """
        import json

        return json.dumps(
            self.to_json(), sort_keys=True, ensure_ascii=False
        ).encode("utf-8")

    def __repr__(self):
        return f"Certificate({self.summary()})"


def _jsonable(value: Any) -> Any:
    """Best-effort conversion to JSON-serializable data.

    Counterexamples (anything with ``to_dict``) serialize structurally;
    other non-primitive values fall back to ``repr``.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    return repr(value)


class CertifiedLayer:
    """The judgment ``L1[A] ⊢_R M : L2[A]`` together with its certificate.

    Construction *requires* a fully successful certificate — an invalid
    judgment cannot be packaged, mirroring the Coq kernel discipline.
    """

    def __init__(
        self,
        underlay: LayerInterface,
        module: Module,
        overlay: LayerInterface,
        relation: SimRel,
        focused: Iterable[int],
        certificate: Certificate,
    ):
        certificate.require_ok()
        self.underlay = underlay
        self.module = module
        self.overlay = overlay
        self.relation = relation
        self.focused: FrozenSet[int] = frozenset(focused)
        self.certificate = certificate

    @property
    def judgment(self) -> str:
        focus = ",".join(str(t) for t in sorted(self.focused))
        return (
            f"{self.underlay.name}[{focus}] ⊢_{self.relation.name} "
            f"{self.module.name} : {self.overlay.name}[{focus}]"
        )

    def __repr__(self):
        return f"CertifiedLayer({self.judgment})"


def stamp_provenance(
    cert: Certificate,
    wall_time_s: float,
    window: Optional[MetricsWindow] = None,
    outputs: Sequence[Dict[str, Any]] = (),
    **extra: Any,
) -> Certificate:
    """Attach an observability provenance record to ``cert``.

    A no-op unless observability is enabled (:mod:`repro.obs`), so
    checkers can call it unconditionally.  ``window`` supplies the
    counter deltas accumulated while the judgment was being checked;
    ``extra`` carries checker-specific fields (environment-context
    counts, scheduler families, ...).  ``outputs`` are the checker's
    per-obligation outputs: each carries provenance blocks under their
    registered names (:mod:`repro.obs.blocks`), and every block is the
    fold of the outputs, else the certificate's prior block (a rule
    wrapper re-stamping a checker's certificate), else the inherited
    merge of the children's blocks — composition rules, which enumerate
    nothing themselves, thereby state what their premises were checked
    against.

    When a run ledger is armed (:mod:`repro.obs.store`) the certificate
    is additionally noted for the run record — *before* the obs gate
    and without touching the certificate, so ledger capture works with
    obs off and never perturbs certificate bytes.
    """
    note_certificate(cert, wall_time_s)
    if not obs_enabled():
        return cert
    provenance: Dict[str, Any] = {
        "rule": cert.rule,
        "judgment": cert.judgment,
        "wall_time_s": round(wall_time_s, 6),
        "obligations": {
            "direct": len(cert.obligations),
            "total": cert.obligation_count(),
            "failed": len(cert.failures),
        },
        "bounds": dict(cert.bounds),
        "log_universe": len(cert.log_universe),
        "children": len(cert.children),
    }
    if window is not None:
        delta = window.delta()
        if delta:
            provenance["metrics"] = delta
    provenance.update(extra)
    compose_blocks(
        provenance,
        cert.provenance or {},
        [child.provenance or {} for child in cert.children],
        outputs,
    )
    cert.provenance = provenance
    return cert


def stamp_incremental(
    cert: Certificate,
    status: str,
    key: Optional[str] = None,
    exact: bool = True,
) -> Certificate:
    """Record a per-obligation cache outcome (``"reused"``/``"rechecked"``).

    Obs-gated like :func:`stamp_cache_status`.  A reused obligation
    certificate skipped its checker's :func:`stamp_provenance` call (it
    was loaded stripped), so the ledger note happens here for that case
    only — a rechecked one was already noted by its checker.
    """
    if status == "reused":
        note_certificate(cert)
    if not obs_enabled():
        return cert
    record: Dict[str, Any] = {"status": status, "exact": exact}
    if key is not None:
        record["key"] = key[:16]
    return _annotate(cert, incremental=record)


def stamp_cache_status(
    cert: Certificate,
    status: str,
    key: Optional[str] = None,
    workers: Optional[int] = None,
) -> Certificate:
    """Record the certificate cache outcome (``"hit"``/``"miss"``).

    Obs-gated like :func:`stamp_provenance`.  On a miss the checker has
    already stamped full provenance and this merely annotates it; on a
    hit the loaded certificate is provenance-free (cached certificates
    are stored stripped) and gains a minimal record, since the
    enumeration the original provenance described did not happen in
    this run.  Cache hits skip the checker's :func:`stamp_provenance`
    call entirely, so the ledger note happens here too (obs-off safe,
    never mutating).
    """
    note_certificate(cert)
    if not obs_enabled():
        return cert
    fields: Dict[str, Any] = {"cache": status}
    if key is not None:
        fields["cache_key"] = key[:16]
    if workers is not None:
        fields["workers"] = workers
    return _annotate(cert, **fields)


def stamp_lint(cert: Certificate, report: Any) -> Certificate:
    """Record a lint pre-pass report in certificate provenance.

    Obs-gated like :func:`stamp_provenance`, so obs-off certificate
    bytes stay identical whether or not the lint pass ran.  ``report``
    is a :class:`repro.analysis.findings.LintReport` (duck-typed on
    ``to_provenance``); ``None`` is a no-op.
    """
    if report is None or not obs_enabled():
        return cert
    return _annotate(cert, lint=report.to_provenance())


def _annotate(cert: Certificate, **fields: Any) -> Certificate:
    """Add ``fields`` to a copy of ``cert``'s provenance (or a minimal one)."""
    provenance = dict(cert.provenance or {"rule": cert.rule, "judgment": cert.judgment})
    provenance.update(fields)
    cert.provenance = provenance
    return cert


@dataclass
class InterfaceSim:
    """The judgment ``L ≤_R L'`` (strategy simulation between interfaces),
    used as a premise of the weakening rule ``Wk``."""

    low: LayerInterface
    high: LayerInterface
    relation: SimRel
    certificate: Certificate

    def __post_init__(self):
        self.certificate.require_ok()

    @property
    def judgment(self) -> str:
        return f"{self.low.name} ≤_{self.relation.name} {self.high.name}"

    def __repr__(self):
        return f"InterfaceSim({self.judgment})"

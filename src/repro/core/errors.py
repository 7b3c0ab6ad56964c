"""Exception hierarchy for the CCAL reproduction.

The paper's semantics distinguishes three failure modes that we model as
exceptions:

* ``Stuck`` — the machine has no transition.  In the push/pull memory model
  (paper §3.1) a data race manifests as the replay function returning
  ``None`` and the machine getting stuck; proving a program never gets
  stuck is how race freedom is established.
* ``VerificationError`` — a checked judgment (simulation, rely/guarantee
  implication, contextual refinement, translation validation) failed.
  Raised by the verifiers in :mod:`repro.core.simulation`,
  :mod:`repro.core.calculus` and friends.
* ``ComposeError`` — a layer-calculus rule was applied to premises that do
  not fit together structurally (mismatched interfaces, overlapping
  modules, non-disjoint focused sets, ...).

``ReplayDivergence`` is none of the three: it reports that a checker's
premise about its input — deterministic players — is false, so no
verdict can be given.
"""

from __future__ import annotations

from typing import Optional


class CCALError(Exception):
    """Base class for all errors raised by this library."""


class Stuck(CCALError):
    """The abstract machine has no transition from the current state.

    Carries a human-readable ``reason``.  Getting stuck is how the
    push/pull memory model reports data races (paper Fig. 6, Fig. 8), how
    replay functions report ill-formed logs, and how fuel exhaustion is
    reported by the interpreters when a liveness bound is exceeded.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class OutOfFuel(Stuck):
    """An interpreter exceeded its step budget.

    Sub-class of :class:`Stuck` because a fuel-bounded run that does not
    terminate within the bound is treated as a liveness violation by the
    progress checker (paper §4.1: the ticket-lock loop must terminate in
    ``n * m * #CPU`` steps).
    """

    def __init__(self, reason: str = "out of fuel"):
        super().__init__(reason)


class VerificationError(CCALError):
    """A mechanically checked obligation failed.

    The certificate machinery converts a failed obligation into this
    exception so that an invalid judgment can never be packaged into a
    :class:`~repro.core.certificate.CertifiedLayer`.
    """


class ComposeError(CCALError):
    """A layer-calculus rule (Fig. 9) was applied to incompatible premises."""


class RelyViolation(VerificationError):
    """An environment context produced events outside the rely condition."""


class GuaranteeViolation(VerificationError):
    """A focused participant produced a log violating its guarantee."""


class ReplayDivergence(CCALError):
    """A resumed game run did not reproduce the run it resumes.

    A reduced enumeration resumes each sibling run at a recorded branch
    point: it replays the recorded rounds without re-deciding them and
    checks, at the branch round, that the log and the ready set equal
    the recorded ones.  Both steps presume that every player is a
    deterministic function of the log.  When a replay disagrees with
    the record this is raised instead of any verdict: ``round`` is the
    round at which the disagreement was noticed and ``index`` the first
    log position where the replayed and recorded logs differ (``None``
    when they agree as far as the replay got).
    """

    def __init__(self, round: int, index: Optional[int], reason: str):
        super().__init__(round, index, reason)
        self.round = round
        self.index = index
        self.reason = reason

    def __str__(self) -> str:
        where = (
            "the logs agree so far" if self.index is None
            else f"first differing log index {self.index}"
        )
        return (
            f"resumed game run diverged from its recorded branch point at "
            f"round {self.round} ({where}): {self.reason}; players must be "
            f"deterministic functions of the log"
        )

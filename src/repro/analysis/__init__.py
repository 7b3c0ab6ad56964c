"""repro.analysis — static layer linter and determinism pre-pass.

A fast, stdlib-only static analysis over the Python objects the engine
consumes (interfaces, modules, relations, replay functions) that
rejects ill-formed ``L1[A] ⊢_R M : L2[A]`` inputs *before* bounded
verification burns fuel on them:

* :mod:`repro.analysis.effects` — bytecode-level effect analyzer
  (``dis``) classifying instructions into queries, emits, underlay
  calls, and critical-section brackets, plus nondeterminism detection.
* :mod:`repro.analysis.discipline` — layer-discipline checks (underlay
  coverage, arity, overlay specs, event producibility, atomicity
  shape) and interface etiquette (rely/guarantee lint).
* :mod:`repro.analysis.replay_lint` — replay-purity lint.
* :mod:`repro.analysis.rules` / :mod:`repro.analysis.findings` — the
  versioned rule catalog and structured findings.
* :mod:`repro.analysis.linter` / :mod:`repro.analysis.cli` — the
  orchestration used by :mod:`repro.core.calculus` and the standalone
  ``python -m repro.analysis`` CLI.

Nothing here imports :mod:`repro.core` — inputs are duck-typed — so
the package is importable from :mod:`repro.parallel.cache` (which
folds :data:`~repro.analysis.rules.RULESET_VERSION` into the engine
version) without an import cycle.
"""

from .effects import EffectSummary, analyze_function, analyze_impl, may_emit
from .findings import (
    LintFinding,
    LintReport,
    apply_suppressions,
    dedupe,
    sort_findings,
    suppressed_rules,
)
from .linter import lint_namespace, lint_rule_inputs
from .replay_lint import lint_replay_fn
from .rules import ERROR, RULES, RULESET_VERSION, WARNING, LintRule, rule_table

__all__ = [
    "EffectSummary",
    "ERROR",
    "LintFinding",
    "LintReport",
    "LintRule",
    "RULES",
    "RULESET_VERSION",
    "WARNING",
    "analyze_function",
    "analyze_impl",
    "apply_suppressions",
    "dedupe",
    "lint_namespace",
    "lint_replay_fn",
    "lint_rule_inputs",
    "may_emit",
    "rule_table",
    "sort_findings",
    "suppressed_rules",
]

"""End-to-end: the lint gate in the Fig. 9 rule constructors.

Covers the ISSUE 5 acceptance criteria: strict mode refuses the broken
forensics fixtures statically with the right rule ids; default (record)
mode still certifies and lands the findings in ``Certificate.to_json()``
provenance and ``repro.obs explain`` output; obs-off certificate bytes
are identical across serial/parallel/cached runs with lint enabled; and
certificates cached under an older lint rule set are invalidated.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.analysis.rules import RULESET_VERSION
from repro.core import FuncImpl, SimConfig, fun_rule
from repro.core.calculus import module_rule
from repro.core.errors import VerificationError
from repro.core.events import ACQ, REL
from repro.core.module import Module
from repro.core.relation import ID_REL
from repro.envflags import engine_config, pinned
from repro.machine.atomics import FAI
from repro.objects.ticket_lock import (
    acq_impl,
    lock_guarantee,
    lock_low_interface,
    lock_rely,
    lock_scenarios,
    low_env_alphabet,
    lx86_like_interface,
    n_cell,
)

from lint_players import non_atomic_bump2_impl


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.collector().reset()
    obs.REGISTRY.reset()
    yield
    obs.disable()
    obs.collector().reset()
    obs.REGISTRY.reset()


def broken_rel(ctx, lock):
    """The forensics bug: bump now-serving without publishing."""
    yield from ctx.call(FAI, n_cell(lock))
    return None


def _broken_lock_inputs():
    domain, lock = [1, 2], "q0"
    base = lx86_like_interface(
        domain, 32, lock_rely(domain, [lock]), lock_guarantee(domain, [lock])
    )
    low = lock_low_interface(base)
    module = Module(
        {
            ACQ: FuncImpl(ACQ, acq_impl, lang="spec"),
            REL: FuncImpl(REL, broken_rel, lang="spec"),
        },
        name="M_broken_rel",
    )
    config = SimConfig(
        env_alphabet=low_env_alphabet([2], [lock]),
        env_depth=1,
        fuel=2_000,
        delivery="per_query",
    )
    return base, module, low, lock_scenarios(lock, config)


class TestStrictMode:
    def test_broken_ticket_lock_refused_statically(self):
        """Strict mode refuses the Fun* application up front (L104)."""
        base, module, low, scenarios = _broken_lock_inputs()
        with pytest.raises(VerificationError) as excinfo, pinned(lint="strict"):
            module_rule(base, module, low, ID_REL, 1, scenarios)
        cert = excinfo.value.certificate
        assert not cert.ok
        assert cert.bounds["lint_ruleset"] == RULESET_VERSION
        assert any("REPRO-L104" in o.description for o in cert.failures)
        # Refused statically: no simulation obligations were discharged.
        assert all("lint" in o.description for o in cert.obligations)

    def test_non_atomic_bump2_refused_statically(
        self, counter_base, counter_overlay, ret_only_rel
    ):
        config = SimConfig(env_alphabet=[()], env_depth=1, compare_rets=False)
        with pytest.raises(VerificationError) as excinfo, pinned(lint="strict"):
            fun_rule(
                counter_base, FuncImpl("bump2", non_atomic_bump2_impl),
                counter_overlay, ret_only_rel, 1, config,
            )
        cert = excinfo.value.certificate
        assert any("REPRO-L105" in o.description for o in cert.failures)

    def test_strict_passes_clean_inputs(
        self, counter_base, counter_overlay, ret_only_rel
    ):
        from lint_players import atomic_bump2_impl

        config = SimConfig(env_alphabet=[()], env_depth=1, compare_rets=False)
        with pinned(lint="strict"):
            layer = fun_rule(
                counter_base, FuncImpl("bump2", atomic_bump2_impl),
                counter_overlay, ret_only_rel, 1, config,
            )
        assert layer.certificate.ok

    def test_env_var_selects_mode(self, monkeypatch):
        base, module, low, scenarios = _broken_lock_inputs()
        monkeypatch.setenv("REPRO_LINT", "strict")
        with pytest.raises(VerificationError) as excinfo:
            module_rule(base, module, low, ID_REL, 1, scenarios)
        assert any(
            "REPRO-L104" in o.description
            for o in excinfo.value.certificate.failures
        )


class TestRecordMode:
    def test_default_mode_fails_dynamically_with_findings_in_provenance(self):
        """Record mode lets the engine run; findings ride in provenance."""
        base, module, low, scenarios = _broken_lock_inputs()
        obs.enable()
        with pytest.raises(VerificationError) as excinfo:
            module_rule(base, module, low, ID_REL, 1, scenarios)
        cert = excinfo.value.certificate
        # The dynamic check produced real counterexamples...
        assert cert.counterexamples()
        # ...and the lint findings are stamped next to the coverage map.
        lint = cert.provenance["lint"]
        assert lint["ruleset"] == RULESET_VERSION
        assert lint["mode"] == "record"
        assert any(f["rule"] == "REPRO-L104" for f in lint["findings"])

    def test_findings_in_cert_json_and_explain_output(
        self, counter_base, counter_overlay, ret_only_rel
    ):
        """A dynamically-correct impl with a warning: certifies, records."""
        def noisy_bump2_impl(ctx):
            for _ in {0}:
                yield from ctx.call("bump")
            ctx.enter_critical()
            yield from ctx.call("bump")
            ctx.exit_critical()
            return None

        obs.enable()
        config = SimConfig(env_alphabet=[()], env_depth=1, compare_rets=False)
        layer = fun_rule(
            counter_base, FuncImpl("bump2", noisy_bump2_impl),
            counter_overlay, ret_only_rel, 1, config,
        )
        assert layer.certificate.ok
        data = layer.certificate.to_json()
        findings = data["provenance"]["lint"]["findings"]
        assert any(f["rule"] == "REPRO-N302" for f in findings)
        json.dumps(data)  # provenance must stay JSON-serializable

        from repro.obs.cli import _explain_cert

        rendered = "\n".join(_explain_cert(data, show_ok=True))
        assert "REPRO-N302" in rendered
        assert RULESET_VERSION in rendered

    def test_off_mode_skips_the_pass(self, monkeypatch):
        base, module, low, scenarios = _broken_lock_inputs()
        obs.enable()
        monkeypatch.setenv("REPRO_LINT", "off")
        with pytest.raises(VerificationError) as excinfo:
            module_rule(base, module, low, ID_REL, 1, scenarios)
        provenance = excinfo.value.certificate.provenance or {}
        assert "lint" not in provenance

    def test_unknown_mode_rejected(
        self, counter_base, counter_overlay, ret_only_rel
    ):
        from lint_players import atomic_bump2_impl

        config = SimConfig(env_alphabet=[()], env_depth=1, compare_rets=False)
        with pytest.raises(ValueError, match="unknown lint mode 'pedantic'"):
            with pinned(lint="pedantic"):
                fun_rule(
                    counter_base, FuncImpl("bump2", atomic_bump2_impl),
                    counter_overlay, ret_only_rel, 1, config,
                )

    def test_env_typo_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_LINT", "strcit")
        with pytest.raises(ValueError, match="REPRO_LINT.*'strcit'.*strict"):
            engine_config()

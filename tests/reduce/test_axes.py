"""Gating: REPRO_REDUCE switches DPOR on or off; axis names are refused."""

import pytest

import repro.envflags
from repro.core import check_soundness
from repro.envflags import config_from_env, engine_config, pinned
from test_parity import atomic_bump2_impl, bump2_layer

REDUCE_ENV = "REPRO_REDUCE"


def env_reduce(monkeypatch, value):
    monkeypatch.setenv(REDUCE_ENV, value)
    return config_from_env().reduce


def assert_rejected(monkeypatch, value):
    monkeypatch.setenv(REDUCE_ENV, value)
    with pytest.raises(ValueError) as info:
        config_from_env()
    assert f"REPRO_REDUCE={value!r} is not a boolean" in str(info.value)
    assert "on" in str(info.value) and "off" in str(info.value)


class TestParseAxes:
    def test_default_is_all(self, monkeypatch):
        monkeypatch.delenv(REDUCE_ENV, raising=False)
        assert config_from_env().reduce is True

    @pytest.mark.parametrize("text", ["", "on", "1", "true", "yes"])
    def test_all_spellings(self, text, monkeypatch):
        assert env_reduce(monkeypatch, text) is True

    @pytest.mark.parametrize("text", ["off", "0", "false", "no"])
    def test_off_spellings(self, text, monkeypatch):
        assert env_reduce(monkeypatch, text) is False

    def test_whitespace_and_case(self, monkeypatch):
        assert env_reduce(monkeypatch, " On ") is True
        assert env_reduce(monkeypatch, " OFF ") is False

    def test_single_axis(self, monkeypatch):
        # An axis name is not a value of the switch.
        assert_rejected(monkeypatch, "dpor")

    def test_csv_subset(self, monkeypatch):
        assert_rejected(monkeypatch, "dpor,transpo")

    def test_unknown_axis_raises(self, monkeypatch):
        assert_rejected(monkeypatch, "dpor,typo")

    @pytest.mark.parametrize("text", ["onn", "all", "none", "default"])
    def test_typo_or_old_spelling_raises(self, text, monkeypatch):
        assert_rejected(monkeypatch, text)


class TestResolution:
    def test_env_selects_axes(self, monkeypatch):
        monkeypatch.setenv(REDUCE_ENV, "off")
        assert engine_config().reduce is False
        monkeypatch.setenv(REDUCE_ENV, "on")
        assert engine_config().reduce is True

    def test_explicit_beats_env(self, monkeypatch):
        # The pin overrides whatever the env says.
        monkeypatch.setenv(REDUCE_ENV, "off")
        with pinned(reduce=True):
            assert engine_config().reduce is True

    def test_unset_env_means_all(self, monkeypatch):
        monkeypatch.delenv(REDUCE_ENV, raising=False)
        assert engine_config().reduce is True

    def test_pinned_reduce_tracks_active_stack(self, monkeypatch):
        monkeypatch.setenv(REDUCE_ENV, "off")
        assert engine_config().reduce is False
        with pinned(reduce=True):
            assert engine_config().reduce is True
            with pinned(reduce=False):
                assert engine_config().reduce is False
            assert engine_config().reduce is True
        assert engine_config().reduce is False

    def test_rule_constructors_read_the_env_once(self, monkeypatch):
        # A rule pins the engine configuration at its entry; every
        # lookup under it is a stack read, not another parse of the
        # environment.  Under an outer pin the rule parses nothing.
        monkeypatch.delenv(REDUCE_ENV, raising=False)
        layer = bump2_layer(atomic_bump2_impl)
        reads = []
        parse = repro.envflags.config_from_env

        def counted():
            reads.append(1)
            return parse()

        monkeypatch.setattr(repro.envflags, "config_from_env", counted)

        def soundness():
            return check_soundness(
                layer, clients=[{1: [("bump2", ())], 2: [("bump2", ())]}],
                max_rounds=24,
            )

        assert soundness().ok
        assert len(reads) == 1
        with pinned():
            assert len(reads) == 2  # the outer pin's own parse
            assert soundness().ok
        assert len(reads) == 2

    def test_compile_and_validate_reads_the_env_once(self, monkeypatch):
        # Translation validation runs one check_sim per scenario outside
        # any rule; it pins the configuration for all of them.
        from repro.compiler import compile_and_validate
        from repro.core import SimConfig
        from repro.machine import lx86_interface
        from repro.objects.ticket_lock import ticket_lock_unit

        reads = []
        parse = repro.envflags.config_from_env

        def counted():
            reads.append(1)
            return parse()

        monkeypatch.setattr(repro.envflags, "config_from_env", counted)
        config = SimConfig(env_alphabet=[()], env_depth=0, fuel=500)
        scenarios = [
            ("acq", [("acq", ("q0",))], config),
            ("acq_rel", [("acq", ("q0",)), ("rel", ("q0",))], config),
        ]
        _asm, cert = compile_and_validate(
            lx86_interface([1]), ticket_lock_unit(), 1, scenarios
        )
        assert cert.ok
        assert len(reads) == 1
        with pinned():
            compile_and_validate(
                lx86_interface([1]), ticket_lock_unit(), 1, scenarios
            )
        assert len(reads) == 2  # the outer pin's own parse

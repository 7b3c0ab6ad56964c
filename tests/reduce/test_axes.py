"""Gating: REPRO_REDUCE is on/off; subsets come only from the test pin."""

import pytest

import repro.envflags
from repro.core import check_soundness
from repro.envflags import config_from_env, pinned
from repro.reduce import ALL_AXES, DPOR, current_axes
from test_parity import atomic_bump2_impl, bump2_layer

REDUCE_ENV = "REPRO_REDUCE"


def env_axes(monkeypatch, value):
    monkeypatch.setenv(REDUCE_ENV, value)
    return config_from_env().axes


def assert_rejected(monkeypatch, value):
    monkeypatch.setenv(REDUCE_ENV, value)
    with pytest.raises(ValueError) as info:
        config_from_env()
    assert f"REPRO_REDUCE={value!r} is not a boolean" in str(info.value)
    assert "on" in str(info.value) and "off" in str(info.value)


class TestParseAxes:
    def test_default_is_all(self, monkeypatch):
        monkeypatch.delenv(REDUCE_ENV, raising=False)
        assert config_from_env().axes == ALL_AXES

    @pytest.mark.parametrize("text", ["", "on", "1", "true", "yes"])
    def test_all_spellings(self, text, monkeypatch):
        assert env_axes(monkeypatch, text) == ALL_AXES

    @pytest.mark.parametrize("text", ["off", "0", "false", "no"])
    def test_off_spellings(self, text, monkeypatch):
        assert env_axes(monkeypatch, text) == frozenset()

    def test_whitespace_and_case(self, monkeypatch):
        assert env_axes(monkeypatch, " On ") == ALL_AXES
        assert env_axes(monkeypatch, " OFF ") == frozenset()

    def test_single_axis(self, monkeypatch):
        # An axis name is not a value of the switch: subsets are not
        # selectable from the environment.
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
        assert current_axes() == frozenset()
        monkeypatch.setenv(REDUCE_ENV, "on")
        assert current_axes() == ALL_AXES

    def test_explicit_beats_env(self, monkeypatch):
        # The ablation pin selects a subset over whatever the env says.
        monkeypatch.setenv(REDUCE_ENV, "off")
        with pinned(axes={DPOR}):
            assert current_axes() == {DPOR}

    def test_unset_env_means_all(self, monkeypatch):
        monkeypatch.delenv(REDUCE_ENV, raising=False)
        assert current_axes() == ALL_AXES

    def test_current_axes_tracks_active_stack(self, monkeypatch):
        monkeypatch.setenv(REDUCE_ENV, "off")
        assert current_axes() == frozenset()
        with pinned(axes={DPOR}):
            assert current_axes() == {DPOR}
            with pinned(axes=ALL_AXES):
                assert current_axes() == ALL_AXES
            assert current_axes() == {DPOR}
        assert current_axes() == frozenset()

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

"""Tests for unit helpers."""

import pytest

from repro import units


class TestConversions:
    def test_ghz_roundtrip(self):
        assert units.hz_to_ghz(units.ghz_to_hz(2.6)) == pytest.approx(2.6)

    def test_joules(self):
        assert units.joules(100.0, 2.5) == pytest.approx(250.0)

    def test_watt_hours(self):
        assert units.watt_hours(3600.0) == pytest.approx(1.0)


class TestValidation:
    def test_clamp(self):
        assert units.clamp(5.0, 0.0, 1.0) == 1.0
        assert units.clamp(-5.0, 0.0, 1.0) == 0.0
        assert units.clamp(0.5, 0.0, 1.0) == 0.5

    def test_clamp_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            units.clamp(0.5, 1.0, 0.0)

    def test_require_positive(self):
        assert units.require_positive(1.0, "x") == 1.0
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                units.require_positive(bad, "x")

    def test_require_non_negative(self):
        assert units.require_non_negative(0.0, "x") == 0.0
        with pytest.raises(ValueError):
            units.require_non_negative(-0.1, "x")

    def test_require_fraction(self):
        assert units.require_fraction(0.5, "x") == 0.5
        for bad in (-0.1, 1.1, float("nan")):
            with pytest.raises(ValueError):
                units.require_fraction(bad, "x")

    def test_approx_equal(self):
        assert units.approx_equal(1.0, 1.0 + 1e-12)
        assert not units.approx_equal(1.0, 1.1)


class TestTickGrid:
    @pytest.mark.parametrize("n", [0, 1, 31, 32, 1000])
    @pytest.mark.parametrize(
        "start, step", [(0.0, 0.002), (7.123456789, 0.001), (1e6, 1e-7)]
    )
    def test_is_the_repeated_add_fold(self, n, start, step):
        """Bit-identical to the clock a per-tick loop advances."""
        expected = [start]
        for _ in range(n):
            expected.append(expected[-1] + step)
        assert units.tick_grid(start, step, n).tolist() == expected


class TestErrorHierarchy:
    def test_all_errors_derive_from_base(self):
        import inspect

        from repro import errors

        for name, obj in inspect.getmembers(errors, inspect.isclass):
            if name.endswith("Error") and name != "ReproError":
                assert issubclass(obj, errors.ReproError), name

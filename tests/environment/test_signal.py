"""Tests for the piecewise time-varying Signal abstraction."""

import numpy as np
import pytest

from repro.environment import (
    ConstantSignal,
    PiecewiseLinearSignal,
    StepSignal,
    load_signal,
)
from repro.errors import SimulationError

#: Signal traces whose rows parse as rows but not as finite numbers.
MALFORMED_TRACES = {
    "text-time.jsonl": '{"time_s": "noon", "value": 1}\n',
    "text-value.jsonl": '{"time_s": 0, "value": "high"}\n',
    "list-value.jsonl": '{"time_s": 0, "value": [1, 2]}\n',
    "dict-time.jsonl": '{"t": {"h": 1}, "value": 1}\n',
    "nan-time.jsonl": '{"time_s": NaN, "value": 1}\n',
    "inf-value.jsonl": '{"time_s": 0, "value": Infinity}\n',
    "nan-value.jsonl": '{"time_s": 0, "value": NaN}\n',
    "nan-time.csv": "0,400\nnan,300\n",
    "inf-value.csv": "0,inf\n",
    "nan-value.csv": "time_s,value\n0,nan\n",
}


class TestConstantSignal:
    def test_value_everywhere(self):
        sig = ConstantSignal(450.0)
        assert sig.value(0.0) == 450.0
        assert sig.value(-5.0) == 450.0
        assert sig.value(1e9) == 450.0

    def test_values_vectorized(self):
        sig = ConstantSignal(0.12, name="price")
        out = sig.values(np.array([0.0, 1.0, 2.0]))
        assert out.dtype == np.float64
        assert list(out) == [0.12, 0.12, 0.12]
        assert sig.name == "price"

    def test_never_changes(self):
        assert ConstantSignal(1.0).next_change_s(0.0) == float("inf")

    def test_average_is_the_value(self):
        assert ConstantSignal(7.0).average(0.0, 100.0) == 7.0


class TestStepSignal:
    def _sig(self):
        return StepSignal([(0.0, 1.0), (10.0, 2.0), (20.0, 3.0)])

    def test_left_closed_semantics(self):
        sig = self._sig()
        assert sig.value(0.0) == 1.0
        assert sig.value(9.999) == 1.0
        assert sig.value(10.0) == 2.0  # boundary belongs to the new level
        assert sig.value(19.999) == 2.0
        assert sig.value(20.0) == 3.0

    def test_edges_hold(self):
        sig = self._sig()
        assert sig.value(-5.0) == 1.0  # first value holds before t0
        assert sig.value(1e6) == 3.0  # last value holds forever

    def test_scalar_and_vector_agree(self):
        sig = self._sig()
        times = np.array([-1.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0])
        vector = sig.values(times)
        scalar = [sig.value(float(t)) for t in times]
        assert list(vector) == scalar

    def test_next_change(self):
        sig = self._sig()
        assert sig.next_change_s(-1.0) == 0.0
        assert sig.next_change_s(0.0) == 10.0  # strictly after
        assert sig.next_change_s(9.999) == 10.0
        assert sig.next_change_s(10.0) == 20.0
        assert sig.next_change_s(20.0) == float("inf")

    def test_average_weights_levels_by_dwell(self):
        sig = StepSignal([(0.0, 1.0), (10.0, 3.0)])
        assert sig.average(0.0, 20.0, samples=1000) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(SimulationError):
            StepSignal([])
        with pytest.raises(SimulationError):
            StepSignal([(5.0, 1.0), (1.0, 2.0)])  # unordered
        with pytest.raises(SimulationError):
            StepSignal([(1.0, 1.0), (1.0, 2.0)])  # duplicate time

    @pytest.mark.parametrize(
        "points",
        [
            [(0.0, 1.0), (float("nan"), 2.0)],
            [(float("nan"), 1.0)],
            [(0.0, float("inf"))],
            [(0.0, 1.0), (1.0, float("-inf"))],
            [(0.0, float("nan"))],
            [(0.0, "high")],
            [(None, 1.0)],
        ],
        ids=[
            "nan-time",
            "nan-first-time",
            "inf-value",
            "neg-inf-value",
            "nan-value",
            "text-value",
            "none-time",
        ],
    )
    def test_non_finite_or_non_numeric_points_rejected(self, points):
        with pytest.raises(SimulationError):
            StepSignal(points)


class TestPiecewiseLinearSignal:
    def test_interpolation_matches_exact_formula(self):
        sig = PiecewiseLinearSignal([(0.0, 0.0), (10.0, 1.0)])
        assert sig.value(5.0) == pytest.approx(0.5)
        assert sig.value(0.0) == 0.0
        assert sig.value(10.0) == 1.0

    def test_outside_clamps_by_default(self):
        sig = PiecewiseLinearSignal([(0.0, 2.0), (10.0, 4.0)])
        assert sig.value(-1.0) == 2.0
        assert sig.value(11.0) == 4.0
        assert list(sig.values(np.array([-1.0, 11.0]))) == [2.0, 4.0]

    def test_outside_literal_for_load_profiles(self):
        sig = PiecewiseLinearSignal(
            [(0.0, 2.0), (10.0, 4.0)], outside=0.0
        )
        assert sig.value(-1.0) == 0.0
        assert sig.value(11.0) == 0.0
        assert list(sig.values(np.array([-1.0, 11.0]))) == [0.0, 0.0]

    def test_scalar_and_vector_paths_agree(self):
        sig = PiecewiseLinearSignal(
            [(0.0, 0.1), (3.0, 0.9), (7.0, 0.2), (10.0, 0.6)]
        )
        times = np.linspace(0.0, 10.0, 101)
        vector = sig.values(times)
        for t, v in zip(times, vector):
            assert sig.value(float(t)) == pytest.approx(float(v), abs=1e-12)

    def test_next_change_lands_on_knots(self):
        sig = PiecewiseLinearSignal([(0.0, 0.0), (5.0, 1.0), (10.0, 0.0)])
        assert sig.next_change_s(0.0) == 5.0
        assert sig.next_change_s(5.0) == 10.0
        assert sig.next_change_s(10.0) == float("inf")

    def test_validation(self):
        with pytest.raises(SimulationError):
            PiecewiseLinearSignal([(0.0, 1.0)])
        with pytest.raises(SimulationError):
            PiecewiseLinearSignal([(5.0, 1.0), (0.0, 2.0)])


class TestLoadSignal:
    def test_csv_with_header(self, tmp_path):
        path = tmp_path / "carbon.csv"
        path.write_text("time_s,value\n0,400\n100,300\n200,500\n")
        sig = load_signal(path)
        assert sig.name == "carbon"
        assert sig.value(50.0) == 400.0
        assert sig.value(100.0) == 300.0
        assert sig.next_change_s(0.0) == 100.0

    def test_jsonl(self, tmp_path):
        path = tmp_path / "price.jsonl"
        path.write_text(
            '{"time_s": 0, "value": 0.05}\n{"t": 60, "value": 0.25}\n'
        )
        sig = load_signal(path, name="tou")
        assert sig.name == "tou"
        assert sig.value(30.0) == 0.05
        assert sig.value(60.0) == 0.25

    def test_missing_file(self, tmp_path):
        with pytest.raises(SimulationError):
            load_signal(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("time_s,value\n")
        with pytest.raises(SimulationError):
            load_signal(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,400\nnot-a-number,300\n")
        with pytest.raises(SimulationError):
            load_signal(path)

    def test_jsonl_missing_value_key(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"time_s": 0}\n')
        with pytest.raises(SimulationError):
            load_signal(path)

    @pytest.mark.parametrize("name", sorted(MALFORMED_TRACES))
    def test_malformed_values_raise_simulation_error(self, tmp_path, name):
        path = tmp_path / name
        path.write_text(MALFORMED_TRACES[name])
        with pytest.raises(SimulationError):
            load_signal(path)

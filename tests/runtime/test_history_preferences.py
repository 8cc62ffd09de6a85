"""Tests for history windows, EWMA, and user preferences."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import EWMA, Constraint, HistoryWindow, Objective, UserPreference
from repro.tunable import MetricRange


# ---------------------------------------------------------------- history


def test_history_mean_and_last():
    h = HistoryWindow(window=10.0)
    assert h.empty
    assert h.mean() is None
    h.record(0.0, 1.0)
    h.record(1.0, 3.0)
    assert h.mean() == pytest.approx(2.0)
    assert h.last() == 3.0
    assert h.minimum() == 1.0
    assert h.maximum() == 3.0


def test_history_trims_outside_window():
    h = HistoryWindow(window=1.0)
    h.record(0.0, 100.0)
    h.record(2.0, 1.0)
    h.record(2.5, 3.0)
    assert len(h) == 2
    assert h.mean() == pytest.approx(2.0)


def test_history_rejects_out_of_order():
    h = HistoryWindow(window=1.0)
    h.record(5.0, 1.0)
    with pytest.raises(ValueError):
        h.record(4.0, 1.0)


def test_history_invalid_window():
    with pytest.raises(ValueError):
        HistoryWindow(window=0.0)


def test_history_clear():
    h = HistoryWindow(window=1.0)
    h.record(0.0, 1.0)
    h.clear()
    assert h.empty


class NaiveWindow:
    """Reference history window: a plain list, re-summed on every query."""

    def __init__(self, window):
        self.window = window
        self.s = []

    def record(self, t, v):
        self.s.append((t, v))
        self.s = [(ti, vi) for ti, vi in self.s if ti >= t - self.window]

    def clear(self):
        self.s = []

    def mean(self):
        return sum(v for _, v in self.s) / len(self.s) if self.s else None

    def minimum(self):
        return min((v for _, v in self.s), default=None)

    def maximum(self):
        return max((v for _, v in self.s), default=None)

    def last(self):
        return self.s[-1][1] if self.s else None


#: Time steps: repeats (0), in-window steps, and jumps past the window
#: that trim every earlier sample.
_steps = st.sampled_from([0.0, 0.0, 0.001, 0.01, 0.1, 0.3, 0.5, 0.99, 1.0, 2.5])
_values = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, width=64)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("record"), _steps, _values),
        st.tuples(st.just("clear")),
    ),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(ops=_ops, window=st.sampled_from([0.01, 0.5, 1.0]))
def test_history_matches_naive_reference_bit_for_bit(ops, window):
    """Every query, after every ``record``/``clear``, equals the reference."""
    h, ref = HistoryWindow(window), NaiveWindow(window)
    t = 0.0
    for op in ops:
        if op[0] == "record":
            t += op[1]
            h.record(t, op[2])
            ref.record(t, op[2])
        else:
            h.clear()
            ref.clear()
        mean = h.mean()
        # ``==``, not approx: the cached mean must be the same float.
        assert mean == ref.mean()
        assert h.mean() == mean  # a second read, no record() in between
        assert h.minimum() == ref.minimum()
        assert h.maximum() == ref.maximum()
        assert h.last() == ref.last()
        assert len(h) == len(ref.s)
        assert h.empty == (not ref.s)
        assert h.samples() == ref.s


def test_ewma_converges():
    e = EWMA(alpha=0.5)
    assert e.value is None
    e.update(10.0)
    assert e.value == 10.0
    e.update(0.0)
    assert e.value == 5.0
    for _ in range(50):
        e.update(0.0)
    assert e.value == pytest.approx(0.0, abs=1e-10)


def test_ewma_validation_and_reset():
    with pytest.raises(ValueError):
        EWMA(alpha=0.0)
    with pytest.raises(ValueError):
        EWMA(alpha=1.5)
    e = EWMA()
    e.update(5.0)
    e.reset()
    assert e.value is None


# -------------------------------------------------------------- preferences


def test_objective_direction():
    mini = Objective("t", "minimize")
    maxi = Objective("r", "maximize")
    assert mini.better(1.0, 2.0)
    assert maxi.better(2.0, 1.0)
    assert mini.score(3.0) == -3.0
    assert maxi.score(3.0) == 3.0
    with pytest.raises(ValueError):
        Objective("t", "sideways")


def test_constraint_satisfaction():
    c = Constraint(
        Objective("t"),
        ranges=(MetricRange("t", hi=10.0), MetricRange("r", lo=3.0)),
    )
    assert c.satisfied_by({"t": 5.0, "r": 4.0})
    assert not c.satisfied_by({"t": 15.0, "r": 4.0})
    assert not c.satisfied_by({"t": 5.0})  # missing metric fails


def test_preference_ordering():
    first = Constraint(Objective("t"), name="strict")
    second = Constraint(Objective("t"), name="relaxed")
    pref = UserPreference([first, second])
    assert pref.primary.name == "strict"
    assert [c.name for c in pref] == ["strict", "relaxed"]
    assert len(pref) == 2


def test_preference_requires_constraints():
    with pytest.raises(ValueError):
        UserPreference([])


def test_preference_single_helper():
    pref = UserPreference.single(Objective("t"), [MetricRange("t", hi=1.0)])
    assert len(pref) == 1
    assert pref.primary.ranges[0].hi == 1.0

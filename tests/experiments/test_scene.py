"""The scenario registry and the Instruments bundle's attach/detach contract."""

import pytest

from repro.experiments.chaos import run_chaos
from repro.experiments.scene import SCENARIOS, Instruments
from repro.obs import InteractiveContext, TraceRecorder, UsageAccountant


def test_scenario_registry_and_errors():
    assert set(SCENARIOS) >= {
        "fig5", "fig5sess", "fig6a", "fig6b", "chaos", "recovery", "crowd",
    }
    steppable = {name for name, entry in SCENARIOS.items() if entry.build}
    assert steppable >= {
        "fig5", "chaos", "recovery", "crowd",
        "fig7a", "fig7b", "fig7cd", "ext-memory",
    }
    with pytest.raises(KeyError):
        InteractiveContext("no-such-scenario")
    with pytest.raises(KeyError):
        InteractiveContext("fig6a")  # a profiling sweep, not one Scene


def test_failed_finalize_detaches_instruments():
    """A run that misses its horizon still leaves the observers unbound."""
    recorder, usage = TraceRecorder(), UsageAccountant()
    with pytest.raises(RuntimeError, match="did not finish"):
        run_chaos(
            seed=0, until=5.0,
            instruments=Instruments(recorder=recorder, usage=usage),
        )
    assert recorder.sim is None
    assert usage.sim is None
    # Reusable: a second run binds again instead of raising ObsError.
    with pytest.raises(RuntimeError, match="did not finish"):
        run_chaos(seed=0, until=5.0, instruments=Instruments(recorder=recorder))
    assert recorder.sim is None


def test_detach_is_idempotent_and_attach_free():
    instruments = Instruments(recorder=TraceRecorder())
    instruments.detach()  # never attached: a no-op
    assert instruments.recorder.sim is None


@pytest.mark.parametrize(
    "name, runner",
    [("fig7a", "run_experiment1"), ("fig7b", "run_experiment2"),
     ("fig7cd", "run_experiment3")],
)
def test_registered_fig7_scene_is_the_figures_adaptive_run(name, runner):
    """The steppable Section 7 scene runs exactly the figure's adaptive run."""
    from repro.experiments import fig7

    _fig, payload = SCENARIOS[name].execute(0)
    runs = getattr(fig7, runner)(seed=0)[-1]
    assert payload == runs["adaptive"].to_dict()

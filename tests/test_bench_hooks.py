"""Names that the benchmark's traced run relies on.

perfbench/traced.py wraps program attributes by module and name (its HOOKS
list) and reads a few fields of what they return. When one of them is
renamed or removed, the traced run still succeeds but reports the metrics
that depend on it as missing, so the names are pinned here.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import rankflow.cli
import rankflow.fit
from rankflow.dist import SalesRateDistribution
from rankflow.fit import FitOptions
from rankflow.sim import SimulationConfig, run_simulation, synthesize_noisy_trajectory

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def _hook_targets() -> list[tuple[str, str]]:
    """(module, dotted attribute) of every Hook(...) in traced.py's HOOKS,
    read from the source so that nothing under perfbench/ is imported."""
    for node in ast.parse(TRACED.read_text()).body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == "HOOKS" for t in node.targets):
            return [(call.args[0].value, call.args[1].value) for call in node.value.elts]
    raise AssertionError(f"no HOOKS list in {TRACED}")


HOOK_TARGETS = _hook_targets()


def test_hooks_found():
    assert len(HOOK_TARGETS) >= 16


@pytest.mark.parametrize("module,attr", HOOK_TARGETS,
                         ids=[f"{m}.{a}" for m, a in HOOK_TARGETS])
def test_hook_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_fit_hooks_fire_in_a_cli_fit(monkeypatch, tmp_path):
    # a hook that resolves but is never called reports 0: fit.descent must see
    # the descent phase, once per serial fit, and limit.curve_grid every round
    descend, curve = rankflow.fit.minimize, rankflow.fit._pareto_y_grid
    phases, curve_calls = [], []

    def counted_descend(*args):
        phases.append(descend(*args))
        return phases[-1]

    def counted_curve(*args):
        curve_calls.append(args)
        return curve(*args)

    monkeypatch.setattr(rankflow.fit, "minimize", counted_descend)
    monkeypatch.setattr(rankflow.fit, "_pareto_y_grid", counted_curve)
    traj = synthesize_noisy_trajectory(SalesRateDistribution.pareto(3.939e-4, 0.6312), 857000,
                                       np.linspace(10.0, 1900.0, 50), 200.0, seed=1)
    traj.to_csv(tmp_path / "traj.csv")
    assert rankflow.cli.main(["fit", str(tmp_path / "traj.csv"),
                              "-o", str(tmp_path / "out.json")]) == 0
    assert len(phases) == 1
    assert len(curve_calls) == 1 + max(d.nfev for d in phases[0])


def test_fit_options_take_a_worker_count():
    # fit.pool_speedup times fit_pareto at workers=1 against workers=2
    assert FitOptions(workers=2).workers == 2


def test_simulation_run_exposes_event_fields():
    # the sim.run hook reads these to report sim.events and sim.event_log_bytes
    run = run_simulation(SimulationConfig(rates=[1.0, 2.0], horizon=5.0, seed=0))
    assert isinstance(run.total_events, int) and run.total_events > 0
    assert run.event_times.size == run.event_items.size == run.total_events
    assert sum(a.nbytes for a in (run.event_times, run.event_items)) > 0

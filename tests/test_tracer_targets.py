"""The perfbench tracer's targets in `maps` and `montecarlo` exist where it
looks for them.

`perfbench/tracing.py` wraps module and class attributes by name and skips
an absent one without failing, so a refactor that removed or moved one
would leave the matching `--trace 1` counters at zero. `cli` imports
`montecarlo` only inside `mc`, and `analysis` only inside `paper`, `compare`
and `sweep`, and reads their attributes at call time. So the MC and analysis
spans come from the `montecarlo` and `analysis` targets, and the tracer's
`cli` copies of them are absent. `cli.iterate` stays, for `mc`.
"""

import importlib.util
from pathlib import Path

import pytest
from click.testing import CliRunner

from splitloop import analysis, cli, maps, montecarlo, states, trajectory

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

EXPECTED = {"StepMap.apply"} | {
    f"maps.{prefix}{mode}_{wiring}{suffix}"
    for mode in ("unitary", "measure")
    for wiring in ("both", "right_half", "left_half")
    for prefix, suffix in (("step_", ""), ("", "_kernel"))}
MC_EXPECTED = {f"montecarlo.{name}" for name in (
    "ensemble_frequencies", "agreement_report", "_uniforms", "_walk")}


def tracer_boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    mods = dict(cli=cli, analysis=analysis, trajectory=trajectory,
                maps=maps, states=states, montecarlo=montecarlo)
    return tracing._boundaries(mods)


def targets_in(*owners):
    """Tracer target name -> the object it wraps (None when absent)."""
    return {f"{owner.__name__.rpartition('.')[2]}.{attr}":
            owner.__dict__.get(attr)
            for owner, attr, _, _ in tracer_boundaries() if owner in owners}


def test_every_maps_target_of_the_tracer_exists():
    targets = targets_in(maps, maps.StepMap)
    assert EXPECTED <= targets.keys()
    assert [name for name, found in targets.items() if found is None] == []


def test_every_montecarlo_target_of_the_tracer_exists():
    targets = targets_in(montecarlo)
    assert MC_EXPECTED <= targets.keys()
    assert [name for name, found in targets.items() if found is None] == []


def test_only_the_cli_copies_of_the_lazy_stages_are_absent():
    absent = [name for name, found in targets_in(
        cli, analysis, trajectory, maps, maps.StepMap, states,
        montecarlo).items() if found is None]
    assert sorted(absent) == ["cli.agreement_report", "cli.compare_modes",
                              "cli.ensemble_frequencies",
                              "cli.reference_sequences",
                              "cli.sweep_initial_conditions"]


@pytest.mark.parametrize("name,argv", [
    ("reference_sequences", ["paper"]),
    ("compare_modes", ["compare", "--wl1", "0.9"]),
    ("sweep_initial_conditions",
     ["sweep", "--mode", "unitary", "--grid", "0.2:0.4:0.1"]),
], ids=lambda value: value if isinstance(value, str) else value[0])
def test_cli_reaches_the_analysis_targets(monkeypatch, name, argv):
    # the tracer wraps `analysis.<name>` in place, as this patch does
    calls, original = [], getattr(analysis, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(analysis, name, wrapped)
    result = CliRunner().invoke(cli.main, argv)
    assert result.exit_code == 0, result.output
    assert len(calls) == 1

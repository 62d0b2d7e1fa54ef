"""The perfbench tracer's targets in `maps` exist where it looks for them.

`perfbench/tracing.py` wraps module and class attributes by name and skips
an absent one without failing, so a refactor that removed or moved one
would leave the matching `--trace 1` counters at zero.
"""

import importlib.util
from pathlib import Path

from splitloop import analysis, cli, maps, montecarlo, states, trajectory

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

EXPECTED = {"StepMap.apply"} | {
    f"maps.{prefix}{mode}_{wiring}{suffix}"
    for mode in ("unitary", "measure")
    for wiring in ("both", "right_half", "left_half")
    for prefix, suffix in (("step_", ""), ("", "_kernel"))}


def tracer_boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    mods = dict(cli=cli, analysis=analysis, trajectory=trajectory,
                maps=maps, states=states, montecarlo=montecarlo)
    return tracing._boundaries(mods)


def test_every_maps_target_of_the_tracer_exists():
    targets = {f"{owner.__name__.rpartition('.')[2]}.{attr}":
               owner.__dict__.get(attr)
               for owner, attr, _, _ in tracer_boundaries()
               if owner in (maps, maps.StepMap)}
    assert EXPECTED <= targets.keys()
    assert [name for name, found in targets.items() if found is None] == []

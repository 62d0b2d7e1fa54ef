"""An 80-digit `decimal` reference for the six step maps along topology
schedules.

The maps are written again from the formulas of the `maps` module
docstring, not from the kernels, and run in `decimal` at 80 digits, where
`Decimal.sqrt` is correctly rounded. Each run starts from the exact binary
values of the engine's float start state, and the splitter's reflectance
and transmittance are the exact squares of its float a1 and b1. Every
record's weights must lie within BUDGET of the reference's.
"""

import random
from decimal import Decimal, localcontext

from splitloop import (InteractionMode, Scenario, SplitterCoefficients,
                       StepSchedule, Topology, WeightPair,
                       amplitudes_from_left_weight, iterate)

PASSES = 40
RUNS = 2000
BUDGET = Decimal(128) * Decimal(2) ** -53  # 2**-46, exact
BOTH = Topology.BOTH_CONNECTED
RIGHT = Topology.RIGHT_HALF_CONNECTED


def coherent_step(topology, a, b, r, t):
    """Fixed splitter: the amplitudes after one pass."""
    if topology is BOTH:
        d = (1 + 4 * a * a * b * b).sqrt()
        return 1 / d, 2 * a * b / d
    if topology is RIGHT:
        d = (a ** 4 + b * b * (1 + a) ** 2).sqrt()
        return a * a / d, b * (1 + a) / d
    d = (b ** 4 + a * a * (1 + b) ** 2).sqrt()  # the left half, mirrored
    return a * (1 + b) / d, b * b / d


def measuring_step(topology, w_left, w_right, r, t):
    """Movable splitter: the weights after one pass, r = a1^2, t = b1^2."""
    if topology is BOTH:
        left = r * w_left + t * w_right
        return left, 1 - left
    if topology is RIGHT:
        return r * w_left, t * w_left + w_right
    return r * w_right + w_left, t * w_right


def reference(scenario, switches):
    """The exact weights of each record: record 1 is the start, and record
    n >= 2 is one pass of the wiring in force at step n."""
    mode, start, splitter = scenario.mode, scenario.initial, scenario.splitter
    r, t = Decimal(splitter.a1) ** 2, Decimal(splitter.b1) ** 2
    if mode is InteractionMode.FIXED_SPLITTER:
        step, x, y = coherent_step, start.a_left, start.b_right
        weights = lambda x, y: (x * x, y * y)  # noqa: E731
    else:
        step, x, y = measuring_step, start.w_left, start.w_right
        weights = lambda x, y: (x, y)  # noqa: E731
    x, y = Decimal(x), Decimal(y)  # exact: every float is a decimal
    # a switch at step 1 only relabels record 1
    wiring = dict(switches)
    topology = wiring.get(1, scenario.initial_topology)
    out = [weights(x, y)]
    for n in range(2, scenario.max_steps + 1):
        topology = wiring.get(n, topology)
        x, y = step(topology, x, y, r, t)
        out.append(weights(x, y))
    return out


def sample(rng):
    """A run of PASSES passes from a random start, splitter and mode, under
    a schedule of one to three segments with random wirings."""
    mode = rng.choice(list(InteractionMode))
    w1 = rng.uniform(0.001, 0.999)
    start = (amplitudes_from_left_weight(w1)
             if mode is InteractionMode.FIXED_SPLITTER
             else WeightPair(w1, 1.0 - w1))
    splitter = SplitterCoefficients.from_reflectance(rng.uniform(0.01, 0.99))
    steps = sorted(rng.sample(range(1, PASSES + 1), rng.randrange(3)))
    switches = tuple((n, rng.choice(list(Topology))) for n in steps)
    scenario = Scenario(mode, rng.choice(list(Topology)), splitter, start,
                        max_steps=PASSES)
    return scenario, switches


def test_every_record_is_within_budget_of_the_80_digit_reference():
    rng = random.Random(11)
    worst = (Decimal(0), None)
    with localcontext() as context:
        context.prec = 80
        for _ in range(RUNS):
            scenario, switches = sample(rng)
            records = iterate(scenario, StepSchedule(switches)).records
            exact = reference(scenario, switches)
            assert len(records) == len(exact) == PASSES
            for record, (left, right) in zip(records, exact):
                error = max(abs(Decimal(record.weights.w_left) - left),
                            abs(Decimal(record.weights.w_right) - right))
                if error > worst[0]:
                    worst = (error, (scenario, switches, record.n))
    assert worst[0] <= BUDGET, worst

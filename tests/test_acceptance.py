"""Acceptance suite: the externally agreed pass/fail gates, one per test.

Each test prints a single verdict line (run with -s to see them all) and
then asserts it. Tolerances are part of the contract and are pinned here
rather than imported, so a library change that moves a tolerance shows up
as a failure in this file.

Criterion 10 is implemented exactly as stated. Its second clause asks for
a return to balance within 10 reconnected passes, but the dynamics land
the re-entry next to the repelling all-left state, where the deviation
can only grow fourfold per pass; the measured requirement is 16 passes.
The test reports the measured number and fails honestly rather than
bending the bound.
"""

import math

import numpy as np
from click.testing import CliRunner

import splitloop.maps
from splitloop import (AmplitudePair, ConvergenceCriterion, InteractionMode,
                       NotConverged, Scenario, SplitterCoefficients,
                       Stability, Topology, WeightPair,
                       amplitudes_from_left_weight, closed_form_measure_both,
                       closed_form_measure_right_half, compare_modes,
                       convergence_order, ensemble_frequencies,
                       agreement_report, fixed_points, iterate,
                       reference_sequences, steps_to_converge,
                       step_measure_both, step_unitary_both,
                       step_unitary_right_half)
from splitloop.cli import main as cli_main

INV_SQRT2 = 1.0 / math.sqrt(2.0)
BALANCED = WeightPair(0.5, 0.5)


def report(cid, description, ok, detail=""):
    line = f"ACCEPTANCE {cid:>2} {description}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def unitary_scenario(w1, steps):
    return Scenario(InteractionMode.FIXED_SPLITTER, Topology.BOTH_CONNECTED,
                    SplitterCoefficients.from_reflectance(w1),
                    amplitudes_from_left_weight(w1), max_steps=steps)


def test_criterion_01_heavy_left_unitary_sequence():
    series = iterate(unitary_scenario(0.9, 5)).w_left_series()
    table = (0.735, 0.562, 0.504, 0.500)
    deviations = [abs(series[n - 1] - ref) for n, ref in zip((2, 3, 4, 5),
                                                             table)]
    steps = steps_to_converge(unitary_scenario(0.9, 50),
                              ConvergenceCriterion(BALANCED, 1e-4))
    ok = all(d <= 5e-4 for d in deviations) and steps == 5
    report(1, "coherent run from w=0.9 matches the table and balances in 5",
           ok, f"max dev {max(deviations):.2e}, steps {steps}")


def test_criterion_02_light_left_unitary_sequence():
    series = iterate(unitary_scenario(0.05, 5)).w_left_series()
    table = ((2, 0.84, 5e-3), (3, 0.65, 5e-3), (4, 0.524, 5e-4),
             (5, 0.5006, 5e-4))
    deviations = [(abs(series[n - 1] - ref), tol) for n, ref, tol in table]
    ok = all(d <= tol for d, tol in deviations)
    report(2, "coherent run from w=0.05 matches the table", ok,
           f"max dev {max(d for d, _ in deviations):.2e}")


def test_criterion_03_measurement_sequence_and_rounding_flag():
    splitter = SplitterCoefficients.from_reflectance(0.9)
    scenario = Scenario(InteractionMode.MOVABLE_SPLITTER,
                        Topology.BOTH_CONNECTED, splitter,
                        WeightPair(0.9, 0.1), max_steps=5)
    series = iterate(scenario).w_left_series()
    exact = (0.82, 0.756, 0.7048, 0.66384)
    printed = (0.820, 0.7552, 0.703, 0.661)
    dev_exact = [abs(series[n - 1] - e) for n, e in zip((2, 3, 4, 5), exact)]
    dev_printed = [abs(series[n - 1] - p)
                   for n, p in zip((2, 3, 4, 5), printed)]
    flagged = reference_sequences().sequences[2]
    ok = (all(d <= 1e-12 for d in dev_exact)
          and all(d <= 3e-3 for d in dev_printed)
          and flagged.note is not None and flagged.within_tolerance)
    report(3, "measuring run matches the exact recurrence, table flagged",
           ok, f"exact dev {max(dev_exact):.1e}, "
               f"printed dev {max(dev_printed):.1e}")


def test_criterion_04_fixed_points():
    balanced = step_unitary_both(AmplitudePair(INV_SQRT2, INV_SQRT2))
    balanced_ok = (abs(balanced.a_left - INV_SQRT2) <= 1e-12
                   and abs(balanced.b_right - INV_SQRT2) <= 1e-12)

    rng = np.random.default_rng(2024)
    measure_ok = True
    for theta in rng.uniform(0.05, math.pi / 2 - 0.05, 20):
        splitter = SplitterCoefficients(math.cos(theta), math.sin(theta))
        out = step_measure_both(WeightPair(0.5, 0.5), splitter)
        measure_ok = measure_ok and abs(out.w_left - 0.5) <= 1e-15

    captured = step_unitary_right_half(AmplitudePair(0.0, 1.0))
    invariant = (captured.a_left, captured.b_right) == (0.0, 1.0)
    orbit = iterate(Scenario(InteractionMode.FIXED_SPLITTER,
                             Topology.RIGHT_HALF_CONNECTED,
                             SplitterCoefficients.from_reflectance(0.5),
                             amplitudes_from_left_weight(1e-3),
                             max_steps=6)).w_left_series()
    attracting = all(b < a for a, b in zip(orbit, orbit[1:])) \
        and orbit[-1] < 1e-12
    catalog = fixed_points(InteractionMode.FIXED_SPLITTER,
                           Topology.BOTH_CONNECTED)
    super_ok = any(fp.stability is Stability.SUPERATTRACTING
                   for fp in catalog)
    ok = balanced_ok and measure_ok and invariant and attracting and super_ok
    report(4, "fixed points invariant with the stated stabilities", ok)


def test_criterion_05_property_suite_on_a_million_inputs():
    from splitloop.maps import (measure_both_kernel, measure_left_half_kernel,
                                measure_right_half_kernel,
                                unitary_both_kernel, unitary_left_half_kernel,
                                unitary_right_half_kernel)
    rng = np.random.default_rng(12345)
    n = 1_000_000
    theta = rng.uniform(0.0, np.pi / 2.0, n)
    a, b = np.cos(theta), np.sin(theta)

    norm_dev = 0.0
    for kernel in (unitary_both_kernel, unitary_right_half_kernel,
                   unitary_left_half_kernel):
        ap, bp = kernel(a, b)
        norm_dev = max(norm_dev, float(np.abs(ap * ap + bp * bp - 1.0).max()))

    ab_f, ab_s = unitary_both_kernel(a, b)
    ba_f, ba_s = unitary_both_kernel(b, a)
    swap_exact = np.array_equal(ab_f, ba_f) and np.array_equal(ab_s, ba_s)

    r_l, r_r = unitary_right_half_kernel(a, b)
    l_l, l_r = unitary_left_half_kernel(b, a)
    mirror_exact = np.array_equal(l_l, r_r) and np.array_equal(l_r, r_l)

    w = rng.uniform(0.0, 1.0, n)
    p = rng.uniform(0.0, 1.0, n)
    q = 1.0 - p
    sum_dev = 0.0
    for kernel in (measure_both_kernel, measure_right_half_kernel,
                   measure_left_half_kernel):
        wl, wr = kernel(w, 1.0 - w, p, q)
        sum_dev = max(sum_dev, float(np.abs(wl + wr - 1.0).max()))

    wl, _ = measure_both_kernel(w, 1.0 - w, p, q)
    contraction_dev = float(np.abs(np.abs(wl - 0.5)
                                   - np.abs(p - q) * np.abs(w - 0.5)).max())

    ok = (norm_dev <= 1e-12 and sum_dev <= 1e-15 and swap_exact
          and mirror_exact and contraction_dev <= 1e-15)
    report(5, "kernel invariants hold on one million random inputs", ok,
           f"norm {norm_dev:.1e}, sum {sum_dev:.1e}, "
           f"contraction {contraction_dev:.1e}, swap {swap_exact}, "
           f"mirror {mirror_exact}")


def test_criterion_06_closed_forms_match_iteration():
    grid = [0.1 * k for k in range(1, 10)]
    worst_both = 0.0
    worst_half = 0.0
    for w1 in grid:
        for p in grid:
            splitter = SplitterCoefficients.from_reflectance(p)
            w = WeightPair(w1, 1.0 - w1)
            v = WeightPair(w1, 1.0 - w1)
            for n in range(1, 201):
                predicted = closed_form_measure_both(w1, splitter, n)
                worst_both = max(worst_both, abs(w.w_left - predicted))
                captured = closed_form_measure_right_half(w1, splitter, n)
                worst_half = max(worst_half, abs(v.w_left - captured))
                if n < 200:
                    w = splitloop.maps.step_measure_both(w, splitter)
                    v = splitloop.maps.step_measure_right_half(v, splitter)
    ok = worst_both <= 1e-12 and worst_half <= 1e-12
    report(6, "closed forms track 200 iterated steps over a 9x9 grid", ok,
           f"both {worst_both:.1e}, right-half {worst_half:.1e}")


def test_criterion_07_monte_carlo_agreement():
    splitter = SplitterCoefficients.from_reflectance(0.9)
    estimate = ensemble_frequencies(splitter, Topology.BOTH_CONNECTED,
                                    10, 100_000, 42)
    analytic = iterate(Scenario(InteractionMode.MOVABLE_SPLITTER,
                                Topology.BOTH_CONNECTED, splitter,
                                WeightPair(0.9, 0.1), max_steps=10))
    rows = agreement_report(estimate,
                            [r.weights for r in analytic.records],
                            sigma_bound=4.0)
    step5 = abs(estimate.w_left[4] - 0.66384)
    ok = all(row.passed for row in rows) and step5 <= 0.006
    report(7, "100k-path ensemble sits within 4 sigma of the exact weights",
           ok, f"max z {max(row.z for row in rows):.2f}, "
               f"step-5 gap {step5:.4f}")


def test_criterion_08_coherent_beats_measuring_everywhere():
    counts = {}
    strict = True
    for w1 in (0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9):
        result = compare_modes(w1, 1e-3)
        counts[w1] = (result.unitary_steps, result.measurement_steps)
        strict = strict and result.unitary_steps < result.measurement_steps
    ok = strict and counts[0.9] == (5, 28)
    report(8, "unitary converges strictly faster on the whole grid", ok,
           f"at 0.9: {counts[0.9]}")


def test_criterion_09_quadratic_convergence_exponent():
    slope = convergence_order(0.6)
    ok = abs(slope - 2.0) <= 0.1
    report(9, "log-log slope of successive distances is 2.0 +/- 0.1", ok,
           f"slope {slope:.4f}")


def test_criterion_10_capture_and_release():
    splitter = SplitterCoefficients.from_reflectance(0.5)
    drain = iterate(Scenario(InteractionMode.FIXED_SPLITTER,
                             Topology.RIGHT_HALF_CONNECTED, splitter,
                             AmplitudePair(INV_SQRT2, INV_SQRT2),
                             max_steps=100))
    crossing = next((r for r in drain.records
                     if r.weights.w_right > 1.0 - 1e-6), None)
    captured_ok = crossing is not None
    assert captured_ok

    back = steps_to_converge(
        Scenario(InteractionMode.FIXED_SPLITTER, Topology.BOTH_CONNECTED,
                 splitter, crossing.amplitudes, max_steps=400),
        ConvergenceCriterion(BALANCED, 1e-4))
    further = back - 1 if not isinstance(back, NotConverged) else back
    ok = isinstance(further, int) and further <= 10
    report(10, "capture in 100 passes, release to balance in 10", ok,
           f"captured at pass {crossing.n}, release took {further} passes; "
           f"re-entry lands by the repelling all-left state and the "
           f"deviation grows only fourfold per pass")


def test_criterion_11_cli_regression_sentinel(monkeypatch, tmp_path):
    runner = CliRunner()
    clean = runner.invoke(cli_main, ["paper"])

    def corrupted(a, b):
        # 4 -> 5 in both places at once: the output stays normalized, so
        # the run reaches the reference comparison instead of aborting.
        d = math.sqrt(1.0 + 5.0 * (a * a) * (b * b))
        return 1.0 / d, math.sqrt(5.0) * a * b / d

    # the kernel holds the one copy of the both-connected coherent update
    monkeypatch.setattr(splitloop.maps, "unitary_both_kernel", corrupted)
    broken = runner.invoke(cli_main, ["paper"])
    monkeypatch.undo()

    args = ["mc", "--a1sq", "0.9", "--steps", "8", "--paths", "2000",
            "--seed", "9"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    runner.invoke(cli_main, args + ["--out", str(first)])
    runner.invoke(cli_main, args + ["--out", str(second)])
    identical = first.read_bytes() == second.read_bytes()

    ok = (clean.exit_code == 0 and broken.exit_code == 3 and identical)
    report(11, "reproduction gate exits 0/3 and seeded sampling is stable",
           ok, f"clean {clean.exit_code}, mutated {broken.exit_code}, "
               f"byte-identical {identical}")

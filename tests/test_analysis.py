"""Reference-run report, mode race, sweeps and the convergence exponent."""

import math

import numpy as np
import pytest

from splitloop import (DegenerateInitialError, InteractionMode,
                       ModeMismatchError, NotConverged, OutOfRangeError,
                       Scenario, SplitterCoefficients, Topology, WeightPair,
                       closed_form_measure_right_half, compare_modes,
                       convergence_order, iterate, maps, reference_sequences,
                       sweep_initial_conditions)


class TestReferenceSequences:
    def test_report_shape(self):
        report = reference_sequences()
        assert [s.name for s in report.sequences] == [
            "unitary-w1-0.9", "unitary-w1-0.05", "measure-a1sq-0.9"]
        assert report.all_within_tolerance
        for s in report.sequences:
            assert s.steps == (2, 3, 4, 5)
            assert len(s.computed) == len(s.reference) == 4
            assert s.within_tolerance
            assert s.max_deviation == max(s.deviations)

    def test_unitary_displays_match_the_table(self):
        report = reference_sequences()
        a, b, _ = report.sequences
        assert a.computed_display() == a.reference
        assert b.computed_display() == b.reference

    def test_measure_sequence_flags_coarse_rounding(self):
        report = reference_sequences()
        c = report.sequences[2]
        assert c.note is not None
        # the table entries were rounded along the way; the exact recurrence
        # visibly disagrees with three of them while staying in tolerance
        assert c.computed_display() != c.reference
        assert c.max_deviation > 1e-3
        assert c.within_tolerance

    def test_measure_computed_matches_exact_recurrence(self):
        report = reference_sequences()
        c = report.sequences[2]
        for got, want in zip(c.computed, (0.82, 0.756, 0.7048, 0.66384)):
            assert got == pytest.approx(want, abs=1e-12)


class TestCompareModes:
    def test_canonical_race(self):
        result = compare_modes(0.9, 1e-3)
        assert result.unitary_steps == 5
        assert result.measurement_steps == 28
        assert result.ratio == pytest.approx(5.6)

    def test_balanced_start_is_instant(self):
        result = compare_modes(0.5, 1e-6)
        assert result.unitary_steps == 1
        assert result.measurement_steps == 1
        assert result.ratio == 1.0

    def test_explicit_splitter_unties_the_measurement_run(self):
        tied = compare_modes(0.9, 1e-3)
        untied = compare_modes(
            0.9, 1e-3, splitter=SplitterCoefficients.from_reflectance(0.6))
        # a more balanced splitter contracts faster
        assert untied.measurement_steps < tied.measurement_steps

    def test_out_of_range_initial(self):
        with pytest.raises(OutOfRangeError):
            compare_modes(1.2, 1e-3)

    def test_not_converged_leaves_ratio_unset(self):
        result = compare_modes(0.9, 1e-6, max_steps=3)
        assert isinstance(result.unitary_steps, NotConverged)
        assert isinstance(result.measurement_steps, NotConverged)
        assert result.ratio is None


class TestSweep:
    def test_unitary_both_grid(self):
        result = sweep_initial_conditions(
            InteractionMode.FIXED_SPLITTER, Topology.BOTH_CONNECTED,
            (0.05, 0.5, 0.95), 1e-3, 100)
        assert [c.steps for c in result.cells] == [5, 1, 5]
        assert all(c.converged for c in result.cells)
        assert result.target.w_left == pytest.approx(0.5, abs=1e-15)

    def test_reported_weights_are_taken_at_the_converging_step(self):
        result = sweep_initial_conditions(
            InteractionMode.FIXED_SPLITTER, Topology.BOTH_CONNECTED,
            (0.05,), 1e-3, 100)
        cell = result.cells[0]
        assert abs(cell.final_w_left - 0.5) < 1e-3
        assert abs(cell.final_w_left - 0.5) > 1e-5  # not the deep limit

    def test_measure_right_half_sweep(self):
        splitter = SplitterCoefficients.from_reflectance(0.5)
        result = sweep_initial_conditions(
            InteractionMode.MOVABLE_SPLITTER, Topology.RIGHT_HALF_CONNECTED,
            (0.1, 0.4, 0.8), 1e-3, 100, splitter=splitter)
        assert result.target.w_right == 1.0
        for cell in result.cells:
            assert cell.converged
            expected = next(
                n for n in range(1, 101)
                if closed_form_measure_right_half(cell.w_initial, splitter,
                                                  n) < 1e-3)
            assert cell.steps == expected

    def test_measure_needs_splitter(self):
        with pytest.raises(ModeMismatchError):
            sweep_initial_conditions(
                InteractionMode.MOVABLE_SPLITTER, Topology.BOTH_CONNECTED,
                (0.2, 0.4), 1e-3, 100)

    def test_string_mode_is_named(self):
        with pytest.raises(ModeMismatchError) as info:
            sweep_initial_conditions("unitary", Topology.BOTH_CONNECTED,
                                     (0.2, 0.4), 1e-3, 100)
        assert str(info.value) == ("mode must be an InteractionMode, got "
                                   "'unitary'")

    def test_unconverged_cells_reported(self):
        splitter = SplitterCoefficients.from_reflectance(0.9)
        result = sweep_initial_conditions(
            InteractionMode.MOVABLE_SPLITTER, Topology.BOTH_CONNECTED,
            (0.1, 0.9), 1e-3, 5, splitter=splitter)
        for cell in result.cells:
            assert not cell.converged
            assert cell.steps is None

    def test_cells_stop_at_the_converging_pass(self, monkeypatch):
        calls = []
        kernel = maps.unitary_both_kernel

        def counted(a, b):
            calls.append(1)
            return kernel(a, b)

        monkeypatch.setattr(maps, "unitary_both_kernel", counted)
        result = sweep_initial_conditions(
            InteractionMode.FIXED_SPLITTER, Topology.BOTH_CONNECTED,
            (0.05, 0.5), 1e-3, 10_000)
        assert [c.steps for c in result.cells] == [5, 1]
        assert len(calls) == (5 - 1) + (1 - 1)

    def test_unitary_cells_build_no_splitter(self, monkeypatch):
        expected = sweep_initial_conditions(
            InteractionMode.FIXED_SPLITTER, Topology.LEFT_HALF_CONNECTED,
            (0.2, 0.5, 0.8), 1e-3, 3)

        def refuse(_):
            raise AssertionError("the fixed-splitter map reads no splitter")

        monkeypatch.setattr(SplitterCoefficients, "from_reflectance",
                            staticmethod(refuse))
        result = sweep_initial_conditions(
            InteractionMode.FIXED_SPLITTER, Topology.LEFT_HALF_CONNECTED,
            (0.2, 0.5, 0.8), 1e-3, 3)
        assert result == expected
        assert result.splitter is None

    def test_unconverged_cell_reports_the_final_record(self):
        splitter = SplitterCoefficients.from_reflectance(0.9)
        result = sweep_initial_conditions(
            InteractionMode.MOVABLE_SPLITTER, Topology.BOTH_CONNECTED,
            (0.1,), 1e-3, 5, splitter=splitter)
        final = iterate(Scenario(
            InteractionMode.MOVABLE_SPLITTER, Topology.BOTH_CONNECTED,
            splitter, WeightPair(0.1, 0.9), max_steps=5)).final
        cell = result.cells[0]
        assert (cell.final_w_left, cell.final_w_right) == (
            final.weights.w_left, final.weights.w_right)

    @pytest.mark.parametrize("grid", [(), (0.0, 0.5), (0.5, 0.5), (0.6, 0.4)])
    def test_grid_validation(self, grid):
        with pytest.raises(OutOfRangeError):
            sweep_initial_conditions(
                InteractionMode.FIXED_SPLITTER, Topology.BOTH_CONNECTED,
                grid, 1e-3, 10)

    @pytest.mark.parametrize("mode", InteractionMode)
    def test_ndarray_grid_gives_the_cells_of_a_list(self, mode):
        splitter = SplitterCoefficients.from_reflectance(0.7)
        expected = sweep_initial_conditions(
            mode, Topology.BOTH_CONNECTED, [0.2, 0.4], 1e-3, 50, splitter)
        result = sweep_initial_conditions(
            mode, Topology.BOTH_CONNECTED, np.array([0.2, 0.4]), 1e-3, 50,
            splitter)
        assert result.cells == expected.cells
        assert repr(result.cells) == repr(expected.cells)

    def test_empty_ndarray_grid_is_refused(self):
        with pytest.raises(OutOfRangeError) as info:
            sweep_initial_conditions(
                InteractionMode.FIXED_SPLITTER, Topology.BOTH_CONNECTED,
                np.array([]), 1e-3, 10)
        assert str(info.value) == "grid is empty"


class TestConvergenceOrder:
    def test_quadratic_exponent(self):
        slope = convergence_order()
        assert slope == pytest.approx(2.0, abs=0.1)
        assert slope == pytest.approx(2.0025253060142707, abs=1e-9)

    def test_other_starts_agree(self):
        assert convergence_order(0.8) == pytest.approx(2.0, abs=0.1)

    @pytest.mark.parametrize("w", [0.0, 0.5, 1.0])
    def test_degenerate_starts_rejected(self, w):
        with pytest.raises(DegenerateInitialError):
            convergence_order(w)

    def test_start_carried_onto_the_repelling_point_rejected(self):
        # one pass maps 1e-17 to exactly 1.0, where every distance is 1/2
        with pytest.raises(DegenerateInitialError) as info:
            convergence_order(1e-17)
        assert str(info.value) == "w_initial 1e-17 lands on the fixed point 1"

    def test_start_just_clear_of_the_repelling_point_fits(self):
        assert 1.8 < convergence_order(3e-17) < 2.2

    @pytest.mark.parametrize("w", [1.5, math.nan])
    def test_out_of_range_starts_rejected(self, w):
        with pytest.raises(OutOfRangeError) as info:
            convergence_order(w)
        assert type(info.value) is OutOfRangeError
        assert str(info.value) == f"w_initial out of range: {w!r} not in (0, 1)"

    def test_too_few_iterates_above_the_floor_rejected(self):
        # 1e-4 from balance, the third distance is already below 1e-13
        with pytest.raises(OutOfRangeError) as info:
            convergence_order(0.5001)
        assert str(info.value) == ("not enough usable iterates above the "
                                   "noise floor to fit a slope")

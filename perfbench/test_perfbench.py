"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_workload_other_seed_other_workload(workload):
    assert workloads.specs(workload, 7) == workloads.specs(workload, 7)
    assert workloads.specs(workload, 7) != workloads.specs(workload, 8)
    ids = [s.id for s in workloads.specs(workload, 7)]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_classes_do_not_depend_on_the_seed(workload):
    # Only values change with the seed; the op set keeps its shape, so the
    # cost of a round and the position of op_p50_ms stay put.
    assert ([s.id for s in workloads.specs(workload, 1)]
            == [s.id for s in workloads.specs(workload, 2)])


def test_self_time_subtracts_the_union_of_child_intervals():
    # root [0, 10]: children a [1, 4] and b [3.5, 6] overlap, c [7, 9];
    # a has a grandchild [2, 3] that must not count against root.
    start = [0.0, 1.0, 2.0, 3.5, 7.0]
    end = [10.0, 4.0, 3.0, 6.0, 9.0]
    parent = [-1, 0, 1, 0, 0]
    selfs = tracing.self_times(start, end, parent)
    expected = [10.0 - (5.0 + 2.0), 3.0 - 1.0, 1.0, 2.5, 2.0]
    assert selfs == pytest.approx(expected)


def test_tracer_records_nested_spans_and_restores_attributes():
    class Module:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Module.inner(x) * 2

    tracer = tracing.Tracer()
    original = Module.__dict__["inner"]
    Module.inner = tracer.wrap("m.inner", Module.inner)
    outer = tracer.wrap("m.outer", Module.outer)
    assert outer(1) == 4
    Module.inner = original
    assert [tracer.names[i] for i in tracer.name_id] == ["m.outer", "m.inner"]
    assert list(tracer.parent) == [-1, 0]
    assert tracer.start[0] <= tracer.start[1] <= tracer.end[1] <= tracer.end[0]


def _first_trajectory_op():
    """The first trajectory op and its output: (unitary run, measuring run)."""
    op = workloads.prepare("trajectory", workloads.DEFAULT_SEED)[0]
    return op, op.call()


def test_digest_catches_a_one_ulp_change_in_one_output_float():
    op, (unitary, measuring) = _first_trajectory_op()
    records = list(measuring.records)
    r = records[1234]
    nudged = replace(r.weights)
    object.__setattr__(nudged, "w_left", math.nextafter(r.weights.w_left, 1.0))
    records[1234] = replace(r, weights=nudged)
    changed = (unitary, replace(measuring, records=tuple(records)))
    assert workloads.check(op.spec, changed) is None  # invariants still hold
    assert workloads.digest(changed) != workloads.digest((unitary, measuring))

    golden = workloads.load_goldens("trajectory")[op.spec.id]
    assert workloads.digest((unitary, measuring)) == golden
    gate = workloads.Gate("trajectory", workloads.DEFAULT_SEED)
    gate.verify(op.spec, changed)
    assert [reason for _, reason in gate.failures] == [
        f"digest {workloads.digest(changed)[:16]} differs from the golden"]


def test_gate_flags_a_run_that_differs_from_the_first():
    op, (unitary, measuring) = _first_trajectory_op()
    gate = workloads.Gate("trajectory", seed=None)  # no goldens
    gate.verify(op.spec, (unitary, measuring))
    truncated = replace(measuring, records=measuring.records[:-1])
    gate.verify(op.spec, (unitary, truncated))
    assert gate.attempted == 2
    assert gate.failures == [(op.spec.id,
                              "output differs from this op's first run")]


def test_invariant_check_catches_a_broken_output():
    op, (unitary, measuring) = _first_trajectory_op()
    assert workloads.check(op.spec, (unitary, measuring)) is None
    short = replace(measuring, records=measuring.records[:-1])
    assert "records, expected" in workloads.check(op.spec, (unitary, short))


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    p, value = run.tail(samples)
    assert (p, value) == (90, 90.0)
    assert sum(x > value for x in samples) == 10


def test_calibration_cancels_a_slow_stretch():
    # The machine runs at half speed for the second half of the series: ops
    # and calibration samples both take twice as long there.
    ref = calibration.REFERENCE_S
    n = 40
    cal = [ref if i < n // 2 else 2 * ref for i in range(n + 1)]
    raw = [0.05 if i < n // 2 else 0.10 for i in range(n)]
    scaled = calibration.scale_series(raw, cal)
    # Only the op next to the step is bracketed by samples of both speeds.
    steady = scaled[:n // 2 - 1] + scaled[n // 2:]
    assert steady == pytest.approx([0.05] * len(steady))
    assert scaled[n // 2 - 1] == pytest.approx(0.05 / 1.5)
    assert calibration.scale(0.3, [ref, 3 * ref, 2 * ref]) == pytest.approx(
        0.15)
    assert calibration.scale(0.3, [ref], 2 * ref) == pytest.approx(0.6)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == tracing.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

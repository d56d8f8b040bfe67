"""Tests of the benchmark harness's own logic.

    python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
from check import Checker, OpResult, fingerprint  # noqa: E402
from tracing import Aggregate, Span, Tracer, self_times  # noqa: E402
from workloads import Op, compute_small_documents, document_ops  # noqa: E402

import symsug.cli as cli  # noqa: E402
from symsug import integrals, rules, scale  # noqa: E402


# -- percentiles ---------------------------------------------------------------


def test_p90_is_omitted_below_100_samples():
    assert set(run.latency_metrics([0.001] * 99)) == {"latency_p50_ms"}


def test_p90_has_ten_samples_beyond_it_at_100():
    seconds = [i / 1000 for i in range(1, 101)]
    metrics = run.latency_metrics(seconds)
    assert metrics["latency_p50_ms"] == pytest.approx(50.5)
    assert sum(1 for s in seconds if s * 1000 > metrics["latency_p90_ms"]) == 10


# -- host speed ----------------------------------------------------------------------


def test_host_factor_uses_the_quantile_an_ops_best_estimates():
    # loop times of 1..100 ms; the best of 9 passes estimates the 1/10
    # quantile, so the 11th fastest loop time is used
    times = [i / 1000 for i in range(100, 0, -1)]
    assert run.host_factor(times, 9) == pytest.approx(calibrate.NOMINAL_S / 0.011)


def test_host_factor_cancels_a_uniformly_slower_host():
    loop = [0.002, 0.0025, 0.003] * 20
    fast = 0.030 * run.host_factor(loop, 5)
    slow = 1.5 * 0.030 * run.host_factor([1.5 * t for t in loop], 5)
    assert slow == pytest.approx(fast)


def test_calibration_loop_is_timed_and_checked():
    assert calibrate.kernel() == calibrate.CHECKSUM
    assert calibrate.seconds() > 0


# -- self time ---------------------------------------------------------------------


def test_self_time_subtracts_child_spans_and_direct_aggregates():
    spans = [
        Span(0, "cli.main", 0, 1000, -1, 0),
        Span(1, "io.read_problem", 100, 300, 0, 0),
        Span(2, "mobius.ordinal_mobius_interval", 400, 900, 0, 0),
    ]
    aggregates = [
        # 50 ns of scale work straight from main, 20 of it its own
        Aggregate(0, "scale.sym_max", 3, 50, 20),
        Aggregate(0, "scale.ScaleValue.__post_init__", 3, 0, 30),
        # interval spends 300 ns in capacity calls, 250 of them self time
        Aggregate(2, "capacity.capacity_problems", 2, 300, 250),
        Aggregate(2, "scale.ScaleValue.__lt__", 10, 0, 50),
    ]
    own = self_times(spans, aggregates)
    assert own["cli.main"] == 1000 - 200 - 500 - 50
    assert own["io.read_problem"] == 200
    assert own["mobius.ordinal_mobius_interval"] == 500 - 300
    assert own["capacity.capacity_problems"] == 250
    assert own["scale.sym_max"] == 20
    assert own["scale.ScaleValue.__lt__"] == 50


# -- wrapping ------------------------------------------------------------------------


def _bindings():
    return {
        "rules.sym_max": rules.sym_max,
        "integrals.sym_max": integrals.sym_max,
        "scale.sym_max": scale.sym_max,
        "cli.main": cli.main,
        "ScaleValue.__lt__": scale.ScaleValue.__dict__["__lt__"],
        "ScaleValue.sign": scale.ScaleValue.__dict__["sign"],
        "SetFunction.from_values": vars(sys.modules["symsug.capacity"].SetFunction)["from_values"],
    }


def test_install_rebinds_every_import_and_restore_puts_originals_back():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = _bindings()
        assert all(during[key] is not before[key] for key in before)
        assert rules.sym_max is integrals.sym_max is scale.sym_max
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.restore()
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def test_traced_fold_counts_calls_items_and_ambiguity():
    s = scale.levels_scale(3)
    tracer = Tracer()
    tracer.install()
    try:
        rules.fold_sym_max([s.value(-3), s.value(3), s.value(1)], rules.Rule.ANGLE)
        rules.fold_sym_max((s.value(g) for g in (1, 2)), rules.Rule.FLOOR)
    finally:
        tracer.restore()
    metrics = tracer.metrics()
    assert metrics["rules.fold.angle.calls"] == 1
    assert metrics["rules.fold.floor.calls"] == 1
    assert metrics["rules.fold.items"] == 5
    assert metrics["rules.fold.ambiguous_frac"] == 0.5
    assert metrics["scale.sym_max.calls"] >= 1


# -- checker -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_ops():
    with tempfile.TemporaryDirectory() as directory:
        documents = compute_small_documents(0)
        valid = next(d for d in documents if d.expect_exit == 0 and d.n >= 3)
        invalid = next(d for d in documents if d.expect_exit != 0)
        ops = document_ops([valid, invalid], directory)
        yield ops, [run.run_op(cli, op) for op in ops]


def _replace(result: OpResult, **changes) -> OpResult:
    fields = {"key": result.key, "exits": result.exits, "outputs": result.outputs, "seconds": 0.0}
    fields.update(changes)
    return OpResult(**fields)


def test_checker_accepts_real_output(small_ops):
    ops, results = small_ops
    golden = {op.key: fingerprint(r) for op, r in zip(ops, results)}
    checker = Checker(golden)
    assert [checker.problems(op, r) for op, r in zip(ops, results)] == [[], []]


def test_checker_flags_a_mutated_record_line(small_ops):
    ops, results = small_ops
    op, result = ops[0], results[0]
    record = json.loads(result.outputs[0])
    record["sugeno_sym"] = "-" + record["sugeno_sym"] if record["sugeno_sym"] != "0" else "1"
    mutated = _replace(result, outputs=(json.dumps(record) + "\n", result.outputs[1]))
    # golden comparison and the cross-form check each catch it
    golden = {op.key: fingerprint(result)}
    assert any("golden" in p for p in Checker(golden).problems(op, mutated))
    assert any("sugeno_sym" in p for p in Checker(None).problems(op, mutated))


def test_checker_flags_a_wrong_exit_code(small_ops):
    ops, results = small_ops
    valid, invalid = ops
    assert Checker(None).problems(valid, _replace(results[0], exits=(0, 2)))
    wrong = 1 if invalid.document.expect_exit == 2 else 2
    assert Checker(None).problems(invalid, _replace(results[1], exits=(wrong, wrong)))


def test_checker_flags_output_that_changes_between_passes(small_ops):
    ops, results = small_ops
    checker = Checker(None)
    assert checker.problems(ops[0], results[0]) == []
    changed = _replace(results[0], outputs=(results[0].outputs[0] + " ", results[0].outputs[1]))
    assert checker.problems(ops[0], changed)


def test_an_exception_escaping_main_fails_the_op(small_ops, capsys):
    class Broken:
        @staticmethod
        def main(argv):
            raise TypeError("boom")

    op = small_ops[0][0]
    result = run.run_op(Broken, op)
    assert result.exits == (-1, -1)
    assert "TypeError: boom" in capsys.readouterr().err
    assert Checker(None).problems(op, result)


def test_checker_flags_a_failing_verify_status():
    op = Op("x", (("verify", "--n", "2", "--law", "angle-monotonic"),))
    record = {"law": "angle-monotonic", "status": "xpass", "checks": 1}
    result = OpResult("x", (0,), (json.dumps(record) + "\n",), 0.0)
    assert Checker(None).problems(op, result)


def test_document_generation_is_seeded():
    assert compute_small_documents(5) == compute_small_documents(5)
    assert compute_small_documents(5) != compute_small_documents(6)

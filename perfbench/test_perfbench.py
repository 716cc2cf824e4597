"""Self-checks of the benchmark.

    python3 -m pytest perfbench

Per-layer counts are exact: two traced passes over ``a2_trio`` give
identical values for every metric that is not a time (Fraction calls,
``*.calls``, ``forms.builds``, ``calculus.saturate.attempts``, the dimension
sums and the report sizes).  The result line carries exactly the metrics
``BENCHMARK.json`` declares.  Scaled seconds follow the canary samples
around a span and leave the canary's own time out.
"""

import json

import pytest

import layers
import run
import speed


def traced_counts() -> dict:
    op = run.Op(*run.load("a2_trio"))
    values, _, error = run.traced_op(op, speed.Speed(), list(op.wl.models))
    assert error is None, error
    return {k: v for k, v in values.items() if layers.unit_of(k) != "s"}


def test_traced_counts_repeat_exactly():
    first, second = traced_counts(), traced_counts()
    assert first == second
    assert None not in first.values()
    assert first["linalg.fraction_ops"] > 0
    assert first["calculus.saturate.attempts"] > 0


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_declared_metrics(capsys, trace, section):
    code = run.main(["--workload", "a2_trio", "--seed", "7",
                     "--seconds", "0.1", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())[section]
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"]
               for m in declared)


def test_seconds_scale_by_the_canary_around_a_span():
    sp = speed.Speed()
    # samples at t=1 (canary twice the reference), t=3 and t=5 (four times)
    sp.times = [1.0, 3.0, 5.0]
    sp.canary = [2 * speed.REF_CANARY_S, 4 * speed.REF_CANARY_S,
                 4 * speed.REF_CANARY_S]
    # 0.5 s of the span [2, 4] went to the sample at t=3: 1.5 s of program
    # time, at the mean of the sample inside and one on each side
    assert sp.seconds((2.0, 0.0), (4.0, 0.5)) == pytest.approx(1.5 / (10 / 3))
    # a span with no sample inside uses its two neighbours
    assert sp.seconds((1.5, 0.0), (2.5, 0.0)) == pytest.approx(1.0 / 3)

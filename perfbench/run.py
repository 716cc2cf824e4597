"""Time-to-verdict benchmark for bimodconn.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  One op visits every model of the
workload, in an order drawn from ``--seed``; per model it builds everything
fresh from the model file through the public entry points::

    parse_model(path) -> cli.run("all", model) -> report.to_json(), to_text()

and compares both renderings and the summary with the golden reports in
``perfbench/golden``.  Ops run one after another in a closed loop with one
client, single-threaded, until the next op would end past ``--seconds``.

Every time reported is scaled to a fixed machine speed by a canary that runs
beside the ops (see ``speed.py``): the shared host's own speed swings too
much for raw wall time to compare two runs.  ``setup_s``, ``check_s`` and
``verify_s`` are such seconds, ``ops_per_s`` is per such second.

``--trace 0`` prints the end-to-end metrics (medians over the ops of the
run).  ``--trace 1`` runs the same timed loop, then one more op under
``cProfile``, and prints the per-layer metrics of that op (see ``layers.py``)
with ``trace_overhead`` = traced op time / median untraced op time; the
per-layer seconds are the profiler's own, unscaled.  Lines starting with
``#`` give the machine context, quartiles (of raw wall time and of the canary
too) and error rate; the last line of standard output is the result as one
JSON object.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import layers
from speed import Speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden"
# Enough ops for a median even when one op takes most of the run (m2_grass).
MIN_OPS = 3


@dataclass(frozen=True)
class Workload:
    models: tuple[str, ...]
    truncation: int | None   # None: the truncation the model file states


# An m2 report fails by design (its curvature is not left-linear); the a2
# reports pass.
EXPECTED_SUMMARY = {"m2_grass": "fail", "a2_flat": "pass",
                    "a2_quotient": "pass", "a2_twist": "pass"}

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "m2_grass": Workload(("m2_grass",), None),
    # D=9 keeps bar dimensions at 2 per degree while the embedding dimension
    # reaches 2^10; D=10 costs about 11 s and 350 MB per op.
    "a2_deep": Workload(("a2_flat", "a2_quotient"), 9),
    "a2_trio": Workload(("a2_flat", "a2_quotient", "a2_twist"), None),
}


class SetupError(Exception):
    """The tree cannot run the benchmark (no sources, models or goldens)."""


def golden_path(workload: str, model: str, ext: str) -> Path:
    return GOLDEN / workload / f"{model}.{ext}"


def read_text(path: Path) -> str:
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def load(workload: str):
    """Import the engine and read the golden reports of one workload."""
    wl = WORKLOADS[workload]
    for model in wl.models:
        if not (ROOT / "models" / f"{model}.model").is_file():
            raise SetupError(f"model file models/{model}.model not found")
        for ext in ("json", "txt"):
            if not golden_path(workload, model, ext).is_file():
                raise SetupError(f"golden report {workload}/{model}.{ext} "
                                 "not found")
    if not (SRC / "bimodconn").is_dir():
        raise SetupError("src/bimodconn not found")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        from bimodconn import cli, parse_model
    except ImportError as exc:
        raise SetupError(f"cannot import bimodconn: {exc}") from None
    golden = {m: (read_text(golden_path(workload, m, "json")),
                  read_text(golden_path(workload, m, "txt")))
              for m in wl.models}
    return wl, cli, parse_model, golden


class Op:
    """One op over a workload's models."""

    def __init__(self, wl: Workload, cli, parse_model, golden):
        self.wl, self.cli, self.parse_model, self.golden = wl, cli, parse_model, golden

    def __call__(self, order, now, profiler=None):
        """Return (marks, error, runs).  ``marks`` holds, per model visited,
        the ``now()`` marks before ``parse_model``, after it, after
        ``cli.run`` and after rendering; ``error`` is None when every
        rendering matched its golden bytes and summary."""
        marks, runs = [], []
        for name in order:
            path = str(ROOT / "models" / f"{name}.model")
            gc.collect()   # each model starts on a clean heap, as a new process would
            if profiler is not None:
                profiler.enable()
            m0 = now()
            model = self.parse_model(path, truncation=self.wl.truncation)
            m1 = now()
            report = self.cli.run("all", model)
            m2 = now()
            js, txt = report.to_json(), report.to_text()
            m3 = now()
            if profiler is not None:
                profiler.disable()
            marks.append((m0, m1, m2, m3))
            if (js, txt) != self.golden[name]:
                return marks, f"{name}: report differs from golden", runs
            if report.summary != EXPECTED_SUMMARY[name]:
                return marks, f"{name}: summary {report.summary}", runs
            # Only the traced op keeps its models, for the structure metrics;
            # a timed op frees each model before parsing the next, as
            # separate command-line runs would.
            if profiler is not None:
                runs.append((model, report, js, txt))
            del model, report
        return marks, None, runs


def op_seconds(speed: Speed, marks) -> tuple[float, float, float]:
    """Scaled (setup_s, check_s, verify_s) of one op: sums over its models."""
    setup = check = verify = 0.0
    for m0, m1, m2, m3 in marks:
        setup += speed.seconds(m0, m1)
        check += speed.seconds(m1, m2)
        verify += speed.seconds(m0, m3)
    return setup, check, verify


def closed_loop(op: Op, speed: Speed, rng: random.Random, seconds: float):
    """Run ops back to back until the next one would end past ``seconds`` of
    wall time, but at least MIN_OPS, with the canary sampling throughout.
    Returns per-op samples of scaled (setup, check, verify) seconds, errors,
    scaled seconds of the whole loop and raw wall seconds per op."""
    timed, errors = [], []
    wall_s = 0.0
    speed.start()
    try:
        while True:
            order = list(op.wl.models)
            rng.shuffle(order)
            begin = speed.now()
            try:
                marks, error, _ = op(order, speed.now)
            except Exception as exc:  # any failure of the program counts
                marks, error = None, f"{type(exc).__name__}: {exc}"
            end = speed.now()
            wall_s += end[0] - begin[0]
            timed.append((begin, end, marks if error is None else None))
            if error is not None:
                errors.append(error)
            done = len(timed)
            if done >= MIN_OPS and wall_s + wall_s / done > seconds:
                break
    finally:
        speed.stop()
    speed.sample()   # the last op's spans need a sample after them
    samples = [op_seconds(speed, marks) for _, _, marks in timed if marks]
    loop_s = sum(speed.seconds(begin, end) for begin, end, _ in timed)
    walls = [end[0] - begin[0] for begin, end, marks in timed if marks]
    return samples, errors, loop_s, walls


def verify_summary(verify: list[float]) -> dict:
    """Median, quartiles and sample count of the untraced op times, and the
    90th percentile once at least ten samples lie beyond it."""
    q1, median, q3 = (statistics.quantiles(verify, n=4, method="inclusive")
                      if len(verify) > 1 else verify * 3)
    out = {"median": median, "q1": q1, "q3": q3, "n": len(verify)}
    if len(verify) >= 100:
        out["p90"] = statistics.quantiles(verify, n=10, method="inclusive")[-1]
    return out


def machine_context() -> dict:
    commit = None   # an exported source tree has no commit
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "bimodconn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "src_sha256": digest.hexdigest()[:16],
            "loadavg_start": read_loadavg()}


def read_loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def traced_op(op: Op, speed: Speed, order):
    """One op under cProfile: (per-layer metrics, scaled traced verify_s,
    error).  The canary runs only before and after it, so the profile holds
    the program alone."""
    profiler = cProfile.Profile()
    gc.collect()
    speed.sample()
    try:
        marks, error, runs = op(order, speed.now, profiler)
    except Exception as exc:  # any failure of the program counts
        return None, None, f"{type(exc).__name__}: {exc}"
    speed.sample()
    if error is not None:
        return None, None, error
    return (layers.per_layer(layers.Profile(profiler, SRC / "bimodconn"), runs),
            op_seconds(speed, marks)[2], None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    context = machine_context()
    try:
        op = Op(*load(args.workload))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    speed = Speed()
    samples, errors, loop_s, walls = closed_loop(op, speed, rng, args.seconds)
    verify = [s[2] for s in samples]
    attempted = len(samples) + len(errors)
    metrics: dict[str, tuple] = {}
    if args.trace == 0 and samples:
        metrics = {
            "verify_s": (statistics.median(verify), "s"),
            "setup_s": (statistics.median(s[0] for s in samples), "s"),
            "check_s": (statistics.median(s[1] for s in samples), "s"),
            "ops_per_s": (len(samples) / loop_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
    elif args.trace == 1 and samples:
        order = list(op.wl.models)
        rng.shuffle(order)
        values, traced_verify, error = traced_op(op, speed, order)
        attempted += 1
        if error is not None:
            errors.append(error)
        else:
            values["trace_overhead"] = traced_verify / statistics.median(verify)
            metrics = {k: (v, layers.unit_of(k)) for k, v in values.items()}
    context["loadavg_end"] = read_loadavg()

    detail = {"workload": args.workload, "seed": args.seed,
              "models": list(op.wl.models), "ops": attempted,
              "failed": len(errors), "error_rate": len(errors) / attempted,
              "errors": errors[:5]}
    if samples:
        detail["verify_s"] = verify_summary(verify)
        detail["wall_verify_s"] = verify_summary(walls)
    detail["canary_s"] = verify_summary(speed.canary)
    if args.trace == 1 and metrics:
        detail["layer_status"] = {k: s for k in values
                                  if (s := layers.status(k, values)) != "ok"}
    correct = not errors
    print("# context " + json.dumps(context))
    print("# run " + json.dumps(detail))
    for name, (value, unit) in metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"#   {name:36s} {shown:>12s} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

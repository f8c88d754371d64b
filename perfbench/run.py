"""ppdiv benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ppdiv is imported from ``src/``.
One process runs one workload as a closed loop: a single caller runs one
operation at a time, in whole rounds of the same operations, until
``--seconds`` have passed; the last round is always completed.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exit code 0 when every check passed, 1 when a check failed,
2 when the command line or the checkout is unusable.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# Set-up is timed this many times before the timed rounds and again after
# them: the machine's speed changes over seconds, and samples taken at two
# times steady the median.
SETUP_REPEATS = 5


@dataclass
class OpResult:
    label: str
    wall: float
    cpu: float
    key: object = None
    detail: object = None
    error: str | None = None


def set_up(workload, seed: int, scratch: Path):
    """Import ppdiv and build the inputs, SETUP_REPEATS times; the first
    repeat of a run also imports numpy and scipy.  Returns (inputs, times)."""
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "ppdiv" or m.startswith("ppdiv.")]:
            del sys.modules[name]
        started = time.perf_counter()
        importlib.import_module("ppdiv")
        inputs = workload.build(seed, scratch)
        times.append(time.perf_counter() - started)
    return inputs, times


def run_rounds(ops, seconds=None, rounds=None, tracer=None) -> list[list[OpResult]]:
    """Whole rounds of ``ops``: a fixed number, or as many as start within
    ``seconds``.  Only the first round keeps the details the checks read."""
    done: list[list[OpResult]] = []
    started = time.perf_counter()
    while True:
        results = []
        for op in ops:
            error = raw = None
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                if tracer is None:
                    raw = op.run()
                else:
                    with tracer.span(f"op.{op.label}"):
                        raw = op.run()
            except Exception:  # an operation that fails is counted, not fatal
                error = traceback.format_exc()
                print(f"operation {op.label} failed:\n{error}", file=sys.stderr)
            result = OpResult(op.label, time.perf_counter() - wall0, time.process_time() - cpu0, error=error)
            if error is None:
                result.key, detail = op.digest(raw)
                result.detail = detail if not done else None
            results.append(result)
        done.append(results)
        if rounds is not None:
            if len(done) == rounds:
                return done
        elif time.perf_counter() - started >= seconds:
            return done


def compare_rounds(what: str, rounds, first) -> None:
    for index, results in enumerate(rounds):
        for got, expected in zip(results, first):
            if got.error is None and expected.error is None:
                checks.same_outputs(f"{what} {index + 1}, {got.label}", got.key, expected.key)


def end_to_end(rounds, setup_s: float, peak_rss_mb: float) -> dict:
    ops = [r for results in rounds for r in results]
    done = [r for r in ops if r.error is None]
    total_wall = sum(r.wall for r in ops)
    values = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(sum(r.wall for r in res) for res in rounds), "s"),
        "cpu_s": (statistics.median(sum(r.cpu for r in res) for res in rounds), "s"),
        "op_s": (statistics.median(r.wall for r in done) if done else total_wall, "s"),
        "ops_per_s": (len(done) / total_wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ppdiv" / "__init__.py").is_file():
        print(f"ppdiv sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS[args.workload]
    scratch = OUT / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        inputs, setup_times = set_up(workload, args.seed, scratch)
        warm = workload.warm_up(inputs)
        ops = workload.ops(inputs)
        gc.collect()
        rounds = run_rounds(ops, seconds=args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failures = []
        first = rounds[0]
        try:
            workload.check(inputs, warm, [(r.label, r.key, r.detail) for r in first if r.error is None])
            compare_rounds("round", rounds[1:], first)
        except checks.CheckFailed as exc:
            failures.append(str(exc))

        if args.trace:
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                traced = run_rounds(ops, rounds=len(rounds), tracer=tracer)
            try:
                compare_rounds("traced round", traced, first)
            except checks.CheckFailed as exc:
                failures.append(str(exc))
            untraced_wall = sum(r.wall for res in rounds for r in res)
            traced_wall = sum(r.wall for res in traced for r in res)
            metrics = tracing.layer_metrics(tracer, len(rounds), traced_wall - untraced_wall)
            write_trace(tracer, workload.name, args.seed, len(rounds), metrics)
        else:
            # Safe only now: ppdiv is imported afresh, and ``inputs`` keeps
            # the modules the operations used.
            setup_times += set_up(workload, args.seed, scratch)[1]
            metrics = end_to_end(rounds, statistics.median(setup_times), peak_rss_mb)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    attempted = sum(len(res) for res in rounds)
    failed = sum(r.error is not None for res in rounds for r in res)
    print(
        json.dumps(
            {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if not failures else 1


def write_trace(tracer, workload: str, seed: int, rounds: int, metrics: dict) -> None:
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    OUT.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "metrics": metrics,
        "layers": tracing.span_table(tracer.spans),
        "counts": dict(tracer.counts),
        "sizes": tracing.size_summary(tracer),
        "spans": [[n, s - origin, e - origin, p] for n, s, e, p in tracer.spans],
    }
    with open(OUT / f"trace-{workload}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""kgsemcom benchmark: timed SNR sweeps through ``kgsemcom.harness.run_sweep``.

    python3 bench/run.py --workload fixture_sweep --seed 0 --seconds 55 --trace 0

Run it from the repository root; it imports the program from ``src/`` and
needs no build. One run repeats cycles for about ``--seconds``: it starts
another cycle only while the last cycle's length still fits, and always runs
one. A cycle is one set-up (``PipelineContext.from_config``) plus one sweep,
so every sweep starts with empty embedder, analysis and generation caches, as
every real sweep does. ``records_per_s`` is all records over all sweep time
of the run. Each sweep's records are checked, and its CSV report must hash
the same in every cycle.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics: after the same untraced cycles it runs one more cycle with
every layer wrapped in spans (see ``tracing.py``), writes the spans to
``bench/out/`` and compares traced with untraced throughput.

A human-readable summary goes to stderr; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 1 when an output check fails.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
MIN_SETUPS = 3
# extra set-ups after each sweep, while they take at most this share of it and
# number at most EXTRA_SETUPS_MAX; they spread the timed set-ups over the run
EXTRA_SETUP_SHARE = 0.02
EXTRA_SETUPS_MAX = 8

# name -> unit; sim_huffman and sim_ascii exist only where their scheme runs,
# so they are printed to stderr and not part of the JSON metrics
END_TO_END = {
    "records_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "sim_kgrag": "ratio",
    "kgrag_channel_bits": "bits",
}
TEXT_SCHEME_METRICS = {"sim_huffman": "ratio", "sim_ascii": "ratio"}

def _limit_threads() -> None:
    # one process on one thread: the program's vectors are too small for a BLAS
    # pool to help, and a second spinning thread ties the timing to the load on
    # a second CPU. Set before numpy loads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _import_program():
    """Import kgsemcom from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import kgsemcom
    except ImportError as exc:
        raise SystemExit(f"cannot import kgsemcom from {src}: {exc}")
    if not Path(kgsemcom.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"kgsemcom was imported from {kgsemcom.__file__}, not {src}")
    from kgsemcom import harness
    return harness


class Run:
    """Cycles of set-up plus sweep at one seed, and their checks."""

    def __init__(self, harness, workloads, config):
        self.harness = harness
        self.workloads = workloads
        self.config = config
        self.expected = workloads.expected_records(config)
        self.setup_s: list[float] = []
        self.sweep_s: list[float] = []
        self.hashes: set[str] = set()
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.records = None

    def setup(self):
        t0 = time.perf_counter()
        ctx = self.harness.PipelineContext.from_config(self.config)
        self.setup_s.append(time.perf_counter() - t0)
        return ctx

    def cycle(self):
        """Set up, sweep, check; -> (records per second, context)."""
        # start from a collected heap, so no cycle pays for its predecessor's garbage
        gc.collect()
        ctx = self.setup()
        t0 = time.perf_counter()
        records = self.harness.run_sweep(self.config, ctx)
        sweep_s = time.perf_counter() - t0
        self.sweep_s.append(sweep_s)
        self.attempted += len(records)
        self.failed += self.workloads.record_failures(records)
        if len(records) != self.expected:
            self.problems.append(f"{len(records)} records, expected {self.expected}")
        self.hashes.add(self.workloads.report_sha256(records, self.config))
        self.records = records
        return len(records) / sweep_s, ctx

    def measure(self, seconds: float) -> None:
        start = time.perf_counter()
        while True:
            cycle_start = time.perf_counter()
            # drop the context at once, so peak memory is that of one cycle
            self.cycle()
            spent = 0.0
            for _ in range(EXTRA_SETUPS_MAX):
                if spent + self.setup_s[-1] > EXTRA_SETUP_SHARE * self.sweep_s[-1]:
                    break
                self.setup()
                spent += self.setup_s[-1]
            now = time.perf_counter()
            if now + (now - cycle_start) - start > seconds:
                break
        while len(self.setup_s) < MIN_SETUPS:
            self.setup()

    @property
    def records_per_s(self) -> float:
        return self.attempted / sum(self.sweep_s)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0 and len(self.hashes) == 1


def end_to_end_metrics(run: Run, workloads) -> dict[str, float]:
    metrics = {
        "records_per_s": run.records_per_s,
        "setup_s": statistics.median(run.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": (run.attempted - run.failed) / run.attempted,
    }
    metrics.update(workloads.quality_metrics(run.records))
    return metrics


def _summary(workload: str, seed: int, run: Run, metrics: dict, units: dict,
             golden: bool | None) -> str:
    lines = [f"workload {workload}  seed {seed}  cycles {len(run.sweep_s)}  "
             f"setups {len(run.setup_s)}  records/cycle {run.expected}",
             "  records/s per cycle " + " ".join(f"{run.expected / s:.1f}" for s in run.sweep_s),
             "  set-up s " + " ".join(f"{s:.3f}" for s in run.setup_s)]
    for sha in sorted(run.hashes):
        lines.append(f"  report sha256 {sha}")
    if golden is not None:
        lines.append(f"  matches the golden fixture sha256: {golden}")
    lines += run.problems
    for name, value in metrics.items():
        lines.append(f"  {name:52s} {value:14.6f} {units[name]}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _limit_threads()
    harness = _import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    config = workloads.sweep_config(args.workload, args.seed, OUT_DIR / "inputs")

    run = Run(harness, workloads, config)
    run.measure(args.seconds)
    golden = None
    if args.workload == "fixture_sweep" and args.seed == 0:
        golden = run.hashes == {workloads.GOLDEN_FIXTURE_SHA256}

    if args.trace:
        import tracing
        untraced_rate = run.records_per_s
        tracer = tracing.Tracer()
        with tracer.install():
            traced_rate, ctx = run.cycle()
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        metrics = tracing.per_layer_metrics(tracer, ctx, traced_rate, untraced_rate)
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        names = list(units)
    else:
        metrics = end_to_end_metrics(run, workloads)
        units = {**END_TO_END, **TEXT_SCHEME_METRICS}
        names = list(END_TO_END)

    print(_summary(args.workload, args.seed, run, metrics, units, golden), file=sys.stderr)
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }
    print(json.dumps(result))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())

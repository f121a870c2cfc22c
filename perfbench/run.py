#!/usr/bin/env python3
"""The repository's benchmark: one seeded command for every workload.

    python3 perfbench/run.py --workload read-hot --seed 3 --seconds 24 --trace 0
    python3 perfbench/run.py --seed 3      # pack, read-cold and read-hot in turn

It prints a report for people, then, as its last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric BENCHMARK.json lists with ``--trace 0``, every per-layer
one with ``--trace 1``.  Inputs are generated from ``--seed`` and cached
under ``.bench_build/perfbench`` in the checkout.  Run it from a checkout
that holds ``src/``; anywhere else it exits with status 2 and no result.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Import the program from this checkout's src/ (never an installed copy), and
# this package as ``perfbench``.  Spawned server and pool processes inherit
# this path.
sys.path[:] = [entry for entry in sys.path if Path(entry or ".").resolve() != HERE]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

WORKLOADS = ("pack", "read-cold", "read-hot")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: a tiny corpus, for the benchmark's own tests")
    parser.add_argument("--cache", type=Path, default=ROOT / ".bench_build" / "perfbench",
                        help="where generated inputs and trace spans are kept")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"perfbench: {ROOT} holds no src/repro or BENCHMARK.json to run", file=sys.stderr)
        return 2
    from perfbench import host

    # A SIGTERM unwinds like an error, so every server, pool and spinner the
    # run started is stopped on the way out, whichever way it ends.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return _run(args, spec_path)
    finally:
        host.stop_children()


def _run(args: argparse.Namespace, spec_path: Path) -> int:
    from perfbench import corpus, host
    from perfbench.common import Context

    spec = json.loads(spec_path.read_text())
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    program = host.source_hash(ROOT / "src")
    inputs = corpus.Inputs(args.cache, corpus.SCALES[args.scale], program)
    stamp = host.fingerprint(ROOT, args.seed, program)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        ctx = Context(inputs, args.seed, seconds, bool(args.trace))
        results[name] = run_workload(name, ctx, spec, stamp, args.cache)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload == "all":
        metrics = {name: r["metrics"] for name, r in results.items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_workload(name: str, ctx, spec: dict, stamp: dict, cache: Path) -> dict:
    from perfbench import host, pack, reads

    calibration_ms = host.calibrate()
    if name == "pack":
        outcome = pack.run(ctx)
    else:
        outcome = reads.run(ctx, hot=name == "read-hot")

    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if set(outcome.metrics) != set(end_to_end):
        raise RuntimeError(f"{name} reported {sorted(outcome.metrics)}, not {sorted(end_to_end)}")
    layers = dict(outcome.layers)
    if ctx.trace:
        layers["host.steal_pct"] = ctx.steal.overall()
        layers["host.calibration_ms"] = calibration_ms
        layers["trace.overhead_pct"] = statistics.mean(
            -100.0 * outcome.overhead[m] / outcome.metrics[m]
            for m in ("phase1_per_s", "phase2_per_s", "phase3_per_s")
        )
        unknown = set(layers) - set(per_layer)
        if unknown:
            raise RuntimeError(f"{name} reported layers BENCHMARK.json lacks: {sorted(unknown)}")
        # A layer the workload leaves idle (the serving stack under pack,
        # the write path under the reads) did no work: it reads 0.
        values, units = {n: layers.get(n, 0.0) for n in per_layer}, per_layer
    else:
        values, units = outcome.metrics, end_to_end
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0

    print(f"== perfbench {name}  seed={ctx.seed} seconds={ctx.seconds:g} "
          f"trace={int(ctx.trace)} scale={ctx.inputs.scale.name}")
    print("host " + json.dumps(stamp))
    steal = {k: round(v, 2) for k, v in ctx.steal.percent().items()}
    print(f"noise calibration_ms={calibration_ms:.2f} steal_pct={json.dumps(steal)}")
    for metric, value, unit in outcome.named:
        print(f"  {metric:<34} {value:>16.4f}  {unit}")
    print(f"  {'error_rate':<34} {error_rate:>16.6f}  ratio "
          f"({outcome.failed} of {outcome.attempted} operations)")
    if ctx.trace:
        print("per-layer:")
        for metric in per_layer:
            print(f"  {metric:<34} {values[metric]:>16.4f}  {per_layer[metric]}")
        print("span self time:")
        for line in outcome.report:
            print("  " + line)
        print("tracing overhead (traced minus untraced):")
        for metric, delta in outcome.overhead.items():
            print(f"  {metric:<34} {delta:>+16.4f}  {end_to_end[metric]}")
        outcome.tracer.write(cache / "traces" / f"{name}-seed{ctx.seed}.json")

    return {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }


if __name__ == "__main__":
    sys.exit(main())

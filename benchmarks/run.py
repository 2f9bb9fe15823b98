"""Run one graphebr benchmark workload and print its metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload train-2k-multitask --seed 1 --seconds 15 --trace 0

The program is imported from ./src, never from an installed copy. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: with --trace 0 the end-to-end metrics
of BENCHMARK.json, with --trace 1 its per-layer metrics. Lines before it
give every metric with its unit, sample count and meaning, and the
environment. A full record, and in a traced run the spans, go to
.bench_out/. The exit code is 1 when an output check fails and 2 when the
program or BENCHMARK.json cannot be found.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

# One caller and no helper threads: on a 2-core machine, BLAS worker
# threads that spin while waiting made step times noisier, not faster.
# Set before numpy is imported; a value already in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    package = root / "src" / "graphebr"
    if not (package / "__init__.py").is_file():
        return _fail("no src/graphebr here; run from the repository root")
    try:
        declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        return _fail(f"cannot read BENCHMARK.json ({err})")
    sys.path.insert(0, str(root / "src"))
    import graphebr

    if Path(graphebr.__file__).resolve().parent != package.resolve():
        return _fail(f"imported graphebr from {graphebr.__file__}, not from ./src")

    import workloads
    from harness import environment

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    outcome, recorder = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), str(out_dir)
    )
    metrics = {}
    for entry in declared["per_layer" if args.trace else "end_to_end"]:
        name, got = entry["name"], outcome.metrics.get(entry["name"])
        if got is None or got["unit"] != entry["unit"] or not math.isfinite(got["value"]):
            outcome.failures.append(f"metric {name}: missing, non-finite or not in {entry['unit']}")
            continue
        metrics[name] = {"value": got["value"], "unit": got["unit"]}

    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    extras = [name for name in outcome.metrics if name not in metrics]
    for name in [*metrics, *extras]:
        m = outcome.metrics[name]
        tag = "  [not gated]" if name in extras else ""
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']:6s} n={m['n']:<7d} {m['note']}{tag}")
    for failure in outcome.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)

    tally = outcome.tally
    result = {
        "correct": not outcome.failures,
        "attempted": max(tally.attempted, 1),
        "failed": tally.raised,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, environment=env, all_metrics=outcome.metrics, failures=outcome.failures)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    if recorder is not None:
        recorder.write(out_dir / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

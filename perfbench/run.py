"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign --seed 20231024 --seconds 24 --trace 0

A run covers several inputs: the first at ``--seed``, the others at seeds
derived from it, and builds every one cold. ``--trace 0`` runs every input
``PASSES`` times untraced and reports the end-to-end metrics as medians
over all repetitions. ``--trace 1`` runs its inputs once untraced and once
traced, and reports the per-layer metrics plus the tracing overhead
(traced over untraced work time). Times are reported at reference speed
(see ``calibrate.py``); the raw medians are printed beside them.

Either way the outputs are checked: every repetition of an input must give
the same digest, traced or not, and every workload invariant must hold.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 20231024

#: Seconds one repetition takes at full speed on a 2-core x86-64 VM,
#: reference measurements included. With ``--seconds`` it fixes how many
#: inputs a run covers, whatever the speed of the machine, so that two
#: runs at one seed measure the same inputs.
NOMINAL_REP_S = {"campaign": 5.0, "serve": 5.0, "tables": 7.5}
#: What the generic end-to-end metrics are called on each workload.
ALIASES = {
    "campaign": {"work_s": "campaign_s", "step": "tick"},
    "serve": {"work_s": "serve_s", "step": "serve_minute"},
    "tables": {"work_s": "tables_s", "step": "table2_page"},
}
E2E_UNITS = {"setup_s": "s", "work_s": "s", "step_p50_ms": "ms",
             "step_p95_ms": "ms", "peak_rss_mb": "MB"}
#: Untraced repetitions of every input in a ``--trace 0`` run; more than
#: one, so that a run compares the digests of repeated runs of one input.
PASSES = 2
#: Step percentiles reported; each has at least ten samples beyond it.
PERCENTILES = (50, 95)


@dataclass
class Sample:
    """One repetition, and its tracer when it ran traced."""

    rep: object
    tracer: Optional[object]


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(ALIASES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def input_seeds(seed: int, count: int) -> List[int]:
    """The run's first input is ``seed`` itself; the rest derive from it."""
    from repro.config import SeedBank

    bank = SeedBank(seed)
    return [seed] + [bank.child_seed(f"perfbench.input.{k}") for k in range(1, count)]


def run_pass(run, seeds: List[int], traced: bool) -> List[Sample]:
    """One cold repetition per input, each on its own meter."""
    import layers
    from calibrate import Meter
    from tracer import Tracer

    samples = []
    for seed in seeds:
        gc.collect()  # the previous repetition's garbage is not this one's work
        tracer = Tracer() if traced else None
        if tracer is not None:
            layers.install(tracer)
        try:
            rep = run(seed, tracer, Meter(interim=not traced))
        finally:
            if tracer is not None:
                tracer.restore()
        samples.append(Sample(rep, tracer))
    return samples


def check_digests(seeds: List[int], passes: List[List[Sample]]) -> List[str]:
    """Every repetition of an input must give the digest of its first one."""
    problems = []
    for seed, samples in zip(seeds, zip(*passes)):
        first = samples[0].rep.digest
        problems += [f"input {seed}: digest {sample.rep.digest} != {first}"
                     for sample in samples[1:] if sample.rep.digest != first]
    return problems


def end_to_end(samples: List[Sample], strict: bool = True) -> Dict[str, float]:
    """Medians over repetitions at reference speed; the step percentiles
    pool the steps of every repetition. A percentile with fewer than ten
    steps beyond it is an error, or with ``strict=False`` left out."""
    from workloads import percentile

    steps = [step * 1e3 for sample in samples for step in sample.rep.steps]
    metrics = {
        "setup_s": statistics.median(sample.rep.setup_s for sample in samples),
        "work_s": statistics.median(sample.rep.work_s for sample in samples),
    }
    for pct in PERCENTILES:
        if len(steps) * (100 - pct) / 100 >= 10:
            metrics[f"step_p{pct}_ms"] = percentile(steps, pct)
        elif strict:
            raise RuntimeError(f"p{pct} of {len(steps)} steps has fewer than ten beyond it")
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def per_layer(workload: str, untraced: List[Sample],
              traced: List[Sample]) -> Dict[str, float]:
    """Medians over the traced inputs, seconds at reference speed; the
    overhead is traced over untraced work time, input by input."""
    import layers

    metrics = {name: 0.0 for name in layers.metric_names()}
    rows = []
    for sample in traced:
        rep, tracer = sample.rep, sample.tracer
        row = layers.layer_metrics(tracer)
        attributed = tracer.attributed_s()
        row[f"{workload}.attributed_frac"] = attributed / rep.raw_work_s
        row[f"{workload}.unattributed_s"] = rep.raw_work_s - attributed
        # Values the workload computes from returned outputs, such as the
        # serve verdict-wait percentile, where a per-layer metric names them.
        row.update({f"{workload}.{name}": value for name, value in rep.values.items()
                    if f"{workload}.{name}" in metrics})
        speed = rep.work_s / rep.raw_work_s
        rows.append({name: value * speed if name.endswith("_s") else value
                     for name, value in row.items()})
    for name in rows[0]:
        metrics[name] = statistics.median(row[name] for row in rows)
    metrics[f"{workload}.trace_overhead_frac"] = statistics.median(
        mark.rep.work_s / plain.rep.work_s - 1.0 for plain, mark in zip(untraced, traced)
    )
    return metrics


def describe(workload: str, samples: List[Sample], e2e: Dict[str, float]) -> List[str]:
    """The end-to-end report under each workload's own names, with counts
    and the raw (unscaled) medians."""
    alias = ALIASES[workload]
    reps = [sample.rep for sample in samples]
    n_steps = sum(len(rep.steps) for rep in reps)
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    raw_work = statistics.median(rep.raw_work_s for rep in reps)
    raw_setup = statistics.median(rep.raw_setup_s for rep in reps)
    speed = statistics.median(rep.work_s / rep.raw_work_s for rep in reps)
    lines = [
        f"{alias['work_s']} {e2e['work_s']:.4f} s (median of {len(reps)} repetitions; "
        f"raw {raw_work:.4f} s)",
        *(f"{alias['step']}_p{pct}_ms {e2e[f'step_p{pct}_ms']:.4f} ms (n={n_steps})"
          for pct in PERCENTILES if f"step_p{pct}_ms" in e2e),
        f"setup_s {e2e['setup_s']:.4f} s (raw {raw_setup:.4f} s)",
        f"failed_frac {failed / attempted:.4f} ({failed}/{attempted})",
        f"peak_rss_mb {e2e['peak_rss_mb']:.1f} MB",
        f"reference_speed {speed:.4f} (median work time scale; 1 is full speed)",
    ]
    hourly = sorted(name for name in reps[0].values if name.startswith("model_frac_hour_"))
    for name in sorted(set(reps[0].values) - set(hourly)):
        value = statistics.median(rep.values[name] for rep in reps)
        lines.append(f"{name} {value:.6g} {_unit(name)}")
    if hourly:
        lines.append("model_frac_by_hour " + " ".join(
            f"{statistics.median(rep.values[name] for rep in reps):.3f}" for name in hourly))
    if workload == "serve":
        rps = statistics.median(rep.values["requests"] / rep.work_s for rep in reps)
        lines.append(f"serve_rps {rps:.1f} 1/s")
    return lines


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, digest

    run = WORKLOADS[args.workload]
    nominal = NOMINAL_REP_S[args.workload]
    if args.trace:
        seeds = input_seeds(args.seed, max(1, round(args.seconds / 2 / nominal)))
        passes = [run_pass(run, seeds, traced=False), run_pass(run, seeds, traced=True)]
    else:
        seeds = input_seeds(args.seed, max(1, round(args.seconds / PASSES / nominal)))
        passes = [run_pass(run, seeds, traced=False) for _ in range(PASSES)]

    untraced = passes[0] if args.trace else [s for samples in passes for s in samples]
    everything = [sample for samples in passes for sample in samples]
    lines = [f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
             f"inputs={len(seeds)} repetitions={len(everything)}"]
    e2e = end_to_end(untraced, strict=not args.trace)
    lines += describe(args.workload, untraced, e2e)
    problems = [problem for sample in everything for problem in sample.rep.broken]
    problems += check_digests(seeds, passes)
    lines.append(f"digest {digest([sample.rep.digest for sample in passes[0]])}")
    metrics = per_layer(args.workload, *passes) if args.trace else e2e
    if args.trace:
        lines += [f"{name} {value:.6g} {_unit(name)}"
                  for name, value in metrics.items() if value]
    lines += [f"BROKEN {problem}" for problem in problems]
    print("\n".join(lines))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(sample.rep.attempted for sample in everything),
        "failed": sum(sample.rep.failed for sample in everything),
        "metrics": {
            name: {"value": value, "unit": E2E_UNITS.get(name) or _unit(name)}
            for name, value in metrics.items()
        },
    }, sort_keys=True))
    return 0 if not problems else 1


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_min"):
        return "min"
    if name.endswith(("_frac", "_per_page", "_per_flush")) or "_frac" in name:
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

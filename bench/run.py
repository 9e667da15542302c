#!/usr/bin/env python3
"""cnext benchmark: four workloads, end-to-end metrics untraced, per-layer metrics traced.

    python3 bench/run.py --workload desk-ridge --seed 1 --trace 0
    python3 bench/run.py --seed 1                  # every workload, each in its own process
    python3 bench/run.py --seed 1 --trace 1        # the traced run: per-layer metrics by workload

A run repeats one deterministic pass of its workload (inputs -> set-up -> solves ->
written traces) for as many whole passes as fit in ``--seconds`` (``run_seconds`` of
BENCHMARK.json unless given; at least ``MIN_PASSES``), and times each step of a pass on
its own. The set-up, and the certification of a solver run's own hyperparameters, are
repeated within the pass until they fill 0.2 s and timed by their median call. A time
metric adds up each step's median time across passes, scaled to the machine's quiet
speed: a cnext-free reference kernel is sampled along the run, and times are multiplied
by its quiet-machine time over its median time in this run. On a shared machine the
speed of the same code drifts by tens of percent over seconds to minutes; the scaling
takes out the drift between runs and the median the slowdowns within one. Imports and interpreter start are
outside every metric; BLAS runs on one thread.

The last line of standard output is one JSON object: correct, attempted, failed, metrics.
A pass that raises counts as one failed operation and ends the run's passes.
"""

import os

# pin BLAS and OpenMP to one thread before numpy loads: with two threads the n = 2000
# eigensolves and mixing products use twice the CPU time and vary with the neighbours
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("desk-ridge", "logistic-newton", "agents-expander", "theory-sweep")
MIN_PASSES = 3
# the reference kernel's time when this 2-core machine is quiet (its fastest over
# thousands of samples); every time is reported at that speed
REF_QUIET_S = 0.0093
REF_EVERY_S = 0.25
# a step timed by Watch.median_of is called until its calls fill this many seconds
REPEAT_S = 0.2


def reference_s() -> float:
    """Time of a fixed, cnext-free mix of interpreter loops, small-array calls and BLAS."""
    t0 = perf_counter()
    acc = 0
    for i in range(80_000):
        acc += i * i
    v = np.linspace(0.0, 1.0, 20)
    for _ in range(3_000):
        v = np.abs(0.5 * v - 0.25)
    a = np.full((96, 96), 1.0 / 96)
    for _ in range(24):
        a = a @ a
    return perf_counter() - t0


class Reference:
    """Samples the reference kernel along a run, at most once every ``REF_EVERY_S``."""

    def __init__(self):
        self.samples: list[float] = []
        self._at = float("-inf")

    def sample(self) -> None:
        if perf_counter() - self._at >= REF_EVERY_S:
            self.samples.append(reference_s())
            self._at = perf_counter()

    def scale(self) -> float:
        """Factor that turns seconds of this run into seconds at the quiet speed."""
        return REF_QUIET_S / statistics.median(self.samples)


class Watch:
    """Times named steps of one pass; a repeated name accumulates."""

    def __init__(self, ref: Reference, repeat: bool = True):
        self.parts: dict[str, float] = {}
        self._ref = ref
        self._repeat = repeat

    def median_of(self, name: str, fn):
        """Time the deterministic step ``fn`` by its median call; return its last result.

        The step is called until its calls fill ``REPEAT_S``, so that one slow slice of
        the machine does not decide a short step. A traced pass calls it once, so that
        its span counts stay those of one pass.
        """
        times = []
        while not times or (self._repeat and sum(times) < REPEAT_S):
            self._ref.sample()
            t0 = perf_counter()
            out = fn()
            times.append(perf_counter() - t0)
        self.parts[name] = self.parts.get(name, 0.0) + statistics.median(times)
        return out

    @contextmanager
    def __call__(self, name: str):
        self._ref.sample()
        t0 = perf_counter()
        try:
            yield
        finally:
            self.parts[name] = self.parts.get(name, 0.0) + perf_counter() - t0


def typical(passes: list[dict[str, float]]) -> dict[str, float]:
    """Each step's median time across passes."""
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}


def end_to_end(passes, outcome, peak_rss_mb: float, scale: float) -> dict[str, tuple[float, str]]:
    from workloads import CERT, SETUP, SOLVE, SWEEP

    step = {k: v * scale for k, v in typical(passes).items()}
    solve = {r.name: step[f"{SOLVE}.{r.name}"] for r in outcome.runs}
    hits = [r for r in outcome.runs if r.t_hit is not None]
    cert_s = sum(v for k, v in step.items() if k.startswith((CERT + ".", SWEEP + ".")))
    return {
        "setup_s": (step[SETUP], "s"),
        "wall_s": (sum(v for k, v in step.items() if not k.startswith(CERT + ".")), "s"),
        "rounds_per_s": (sum(r.T for r in outcome.runs) / sum(solve.values()), "1/s"),
        # rounds cost the same all through a run, so the time to the target is the
        # run's share of rounds up to it
        "time_to_target_s": (sum(solve[r.name] * r.t_hit / r.T for r in hits), "s"),
        "bits_to_target": (sum(r.bits_hit for r in hits), "bit"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "certs_per_s": (outcome.points / cert_s, "1/s"),
    }


def per_layer(traced: list[tuple[dict, tuple[float, int]]], outcome, import_s: float,
              overhead: float, scale: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the traced passes; each time is its median over them."""
    def total(summary, *names):
        return sum(summary[n]["incl"] for n in names if n in summary)

    def per_call_us(summary, name):
        row = summary.get(name)
        return 1e6 * row["incl"] / row["calls"] if row else 0.0

    def scaled_median(fn):
        return scale * statistics.median(fn(s, tel) for s, tel in traced)

    first = traced[0][0]
    hits = [r for r in outcome.runs if r.t_hit is not None]
    rounds_to_target = sum(r.t_hit for r in hits)
    bits_to_target = sum(r.bits_hit for r in hits)
    return {
        "graph.mh_weights_s": (scaled_median(lambda s, t: total(s, "graph.metropolis_hastings_weights")), "s"),
        "data.generate_s": (scaled_median(lambda s, t: total(s, "data.generate_ridge_synthetic")), "s"),
        "data.partition_s": (scaled_median(lambda s, t: total(s, "data.partition_homogeneous", "data.build_locals")), "s"),
        "objective.construct_s": (scaled_median(lambda s, t: total(
            s, "objective.ridge_objective", "objective.logistic_objective")), "s"),
        "objective.baseline_s": (scaled_median(lambda s, t: total(
            s, "solver.baseline_optimum", "objective.centralized_newton")), "s"),
        "objective.grad_stack_us": (scaled_median(lambda s, t: per_call_us(s, "objective.Objective.grad_stack")), "us"),
        "objective.hess_solve_us": (scaled_median(lambda s, t: per_call_us(s, "objective.Objective.hess_solve_i")), "us"),
        "objective.value_us": (scaled_median(lambda s, t: per_call_us(s, "objective.Objective.value")), "us"),
        "solver.newton_directions_us": (scaled_median(lambda s, t: per_call_us(s, "solver.newton_directions")), "us"),
        "solver.step_us": (scaled_median(lambda s, t: per_call_us(s, "solver.step")), "us"),
        "solver.telemetry_us": (scaled_median(lambda s, t: 1e6 * t[0] / t[1]), "us"),
        "solver.rounds_to_target": (rounds_to_target, "count"),
        "compress.round_us": (scaled_median(lambda s, t: per_call_us(s, "compress.compress_round")), "us"),
        "compress.make_scheme_s": (scaled_median(lambda s, t: total(s, "compress.make_scheme")), "s"),
        # bits-weighted over the runs, so bits_per_round * rounds_to_target = bits_to_target
        "compress.bits_per_round": (bits_to_target / rounds_to_target, "bit"),
        "theory.check_us": (scaled_median(lambda s, t: per_call_us(s, "theory.check_sufficient_conditions")), "us"),
        "theory.default_epsilon_us": (scaled_median(lambda s, t: per_call_us(s, "theory.default_epsilon")), "us"),
        "theory.build_A_us": (scaled_median(lambda s, t: per_call_us(s, "theory.build_A")), "us"),
        "theory.checks_per_point": (first["theory.check_sufficient_conditions"]["calls"] / outcome.points,
                                    "count"),
        "cli.records_to_csv_s": (scaled_median(lambda s, t: total(s, "cli.records_to_csv")), "s"),
        "cli.import_s": (scale * import_s, "s"),
        "trace.overhead_pct": (overhead, "%"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC_DIR / "cnext" / "__init__.py").is_file():
        sys.exit(f"bench: no cnext sources at {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    t0 = perf_counter()
    import cnext.cli  # noqa: F401  (the CLI imports every cnext module)
    import_s = perf_counter() - t0
    from spans import Tracer
    from workloads import WORKLOADS, Pass

    out_dir = OUT_DIR / name
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    ref = Reference()
    plain, traced_passes, traced = [], [], []
    attempted = failed = 0
    failures: set[str] = set()
    start = perf_counter()
    longest = 0.0
    rounds = 0
    crashed = False
    # a traced run alternates plain and traced passes, so the two see the same machine
    while not crashed and (rounds < MIN_PASSES or perf_counter() - start + longest <= seconds):
        t_round = perf_counter()
        for with_trace in ((False, True) if trace else (False,)):
            watch = Watch(ref, repeat=not with_trace)
            p = Pass()
            if with_trace:
                tracer.clear()
                tracer.install()
            try:
                WORKLOADS[name](seed, str(out_dir), watch, p)
            except Exception as exc:  # a pass is deterministic: the next would raise too
                traceback.print_exc(file=sys.stderr)
                p.check(p.op("pass"), f"raised {type(exc).__name__}: {exc}", False)
                crashed = True
            finally:
                if with_trace:
                    tracer.uninstall()
            attempted += len(p.ops)
            failed += len(p.failures)
            failures.update(f"{op}: {w}" for op, what in p.failures.items() for w in what)
            if crashed:
                break
            outcome = p
            if with_trace:
                traced_passes.append(watch.parts)
                traced.append((tracer.summary(), tracer.telemetry_s()))
            else:
                plain.append(watch.parts)
        longest = max(longest, perf_counter() - t_round)
        rounds += 1
    for line in sorted(failures):
        print(f"FAILED {name}/{line}", file=sys.stderr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if crashed:
        metrics = {}  # the passes are not whole, so no figure would be comparable
    elif trace:
        wall = lambda ps: sum(typical(ps).values())  # noqa: E731
        overhead = 100.0 * (wall(traced_passes) / wall(plain) - 1.0)
        metrics = per_layer(traced, outcome, import_s, overhead, ref.scale())
        tracer.write(str(out_dir / "spans.csv"))
        _print_span_table(name, traced[-1][0])
    else:
        metrics = end_to_end(plain, outcome, peak_rss_mb, ref.scale())
    for key, (value, unit) in metrics.items():
        print(f"{name:16s} {key:28s} {value:>16.6g} {unit}")
    print(f"{name:16s} {'passes':28s} {len(plain) + len(traced_passes):>16d}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _print_span_table(name: str, summary: dict) -> None:
    print(f"{name}: spans of the last traced pass (self = inclusive minus direct children)")
    print(f"  {'function':38s} {'calls':>8s} {'incl_s':>10s} {'self_s':>10s}")
    for fn, row in sorted(summary.items(), key=lambda kv: -kv[1]["self"]):
        print(f"  {fn:38s} {row['calls']:>8d} {row['incl']:>10.4f} {row['self']:>10.4f}")


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process; a summary keyed workload/metric."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name:16s} exited {proc.returncode} without a result", flush=True)
            res = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        print(f"{name:16s} attempted {res['attempted']}, failed {res['failed']}", flush=True)
        for key, metric in res["metrics"].items():
            total["metrics"][f"{name}/{key}"] = metric
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of a run; run_seconds of BENCHMARK.json by default")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"])
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

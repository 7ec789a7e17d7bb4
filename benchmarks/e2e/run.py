#!/usr/bin/env python3
"""The repository's reference benchmark: four §V trace replays, end to end
and layer by layer.  See README.md in this directory.

    python benchmarks/e2e/run.py                      # all workloads, stated reps
    python benchmarks/e2e/run.py --traced             # + the per-layer table
    python benchmarks/e2e/run.py --workload ws35_thrash --seed 7 --reps 1
    python benchmarks/e2e/run.py --selfcheck          # A/A: two sets, same code
    python benchmarks/e2e/run.py --smoke --traced     # ~2k requests each (tier-1)

The benchmark driver calls it as
``run.py --workload NAME --seed N --seconds S --trace 0|1`` and reads the
last line of standard output: one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics for
``--trace 0``, per-layer metrics for ``--trace 1``).

Every repetition runs in a fresh single-threaded child process, one after
another; the parent reports the best repetition for the two host timings
(this box's noise only ever adds time) and the median for the rest.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from schema import DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
EXPECT = HERE / "expect.json"

#: set-ups timed per run (repetitions first, set-up-only children after)
SETUP_SAMPLES = 5
#: a child that runs longer than this is killed and the run fails
CHILD_TIMEOUT_S = 170
SIM_TOLERANCE = 1e-9
#: a traced child this quick may be repeated once inside the driver's
#: three minutes per run
TRACED_RETRY_BELOW_S = 60


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, *, traced=False, smoke=False, setup_only=False) -> dict:
    """Run one repetition in a fresh interpreter and return its result."""
    job = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "smoke": smoke,
        "setup_only": setup_only,
        "t_spawn": time.time(),
    }
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--child", json.dumps(job)],
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} child exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def child_main(job_json: str) -> int:
    sys.path.insert(0, str(SRC))
    from rep import run_rep

    print(json.dumps(run_rep(json.loads(job_json))))
    return 0


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def load_expect() -> dict:
    return json.loads(EXPECT.read_text()) if EXPECT.exists() else {}


def check_rep(rep: dict, pin: dict | None) -> list[str]:
    """Conservation always; the pinned simulated outputs when ``pin`` is
    given (the default seed at full size)."""
    problems = []
    if rep["completed"] + rep["lost"] != rep["submitted"]:
        problems.append(
            f"conservation: {rep['completed']} completed + {rep['lost']} lost "
            f"!= {rep['submitted']} submitted"
        )
    if rep["pending_events"]:
        problems.append(f"{rep['pending_events']} events still pending at drain")
    if pin is not None:
        if rep["submitted"] != pin["submitted"]:
            problems.append(f"submitted {rep['submitted']} != pinned {pin['submitted']}")
        for key, want in pin["sim"].items():
            got = rep["sim"][key]
            if not math.isclose(got, want, rel_tol=SIM_TOLERANCE, abs_tol=0.0):
                problems.append(f"sim {key} = {got!r} != pinned {want!r}")
    return problems


# ----------------------------------------------------------------------
# end-to-end metrics
# ----------------------------------------------------------------------
def end_to_end_of(rep: dict) -> dict[str, float]:
    sim = rep["sim"]
    return {
        "throughput_rps": rep["completed"] / rep["wall_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
        "setup_s": rep["setup_s"],
        "sim_hit_ratio": sim["hit_ratio"],
        "sim_sm_utilization": sim["sm_utilization"],
    }


class Run:
    """The repetitions of one workload and what they add up to."""

    def __init__(self, workload: str, seed: int, smoke: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        pinned = seed == DEFAULT_SEED and not smoke
        self.pin = load_expect().get(workload) if pinned else None
        self.reps: list[dict] = []
        self.setups: list[float] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def check(self, rep: dict) -> None:
        """Count ``rep``'s operations; its timings stay out of the statistics."""
        problems = check_rep(rep, self.pin)
        if self.reps and rep["sim"] != self.reps[0]["sim"]:
            problems.append("simulated outputs differ between repetitions of one seed")
        self.problems += problems
        self.attempted += rep["submitted"]
        # a repetition whose outputs are wrong did no valid work at all
        self.failed += rep["submitted"] if problems else rep["submitted"] - rep["completed"]

    def add(self, rep: dict) -> None:
        self.check(rep)
        self.reps.append(rep)
        self.setups.append(rep["setup_s"])

    def time_setup(self) -> None:
        only = spawn(self.workload, self.seed, smoke=self.smoke, setup_only=True)
        self.setups.append(only["setup_s"])

    def measure(self, *, reps: int | None, seconds: float | None) -> "Run":
        """Repeat until ``reps`` repetitions or ``seconds`` of replay wall."""
        if reps is None and seconds is None:
            reps = WORKLOADS[self.workload].reps
        # set-up is cheap next to a repetition: time it a few more times,
        # some before and some after the repetitions so that one slow spell
        # of the machine does not cover them all
        wanted = 0 if self.smoke else SETUP_SAMPLES
        for _ in range(wanted // 2):
            self.time_setup()
        measured = 0.0
        while True:
            rep = spawn(self.workload, self.seed, smoke=self.smoke)
            self.add(rep)
            measured += rep["wall_s"]
            done = len(self.reps) >= reps if reps is not None else measured >= seconds
            if done:
                break
        while len(self.setups) < wanted:
            self.time_setup()
        return self

    def stats(self) -> dict[str, dict]:
        """value (the metric's pick) / median / min / max / n per
        end-to-end metric."""
        per_rep = [end_to_end_of(rep) for rep in self.reps]
        out = {}
        for name, _unit, better, _bound, pick in END_TO_END:
            values = self.setups if name == "setup_s" else [m[name] for m in per_rep]
            entry = {
                "median": statistics.median(values),
                "min": min(values),
                "max": max(values),
                "n": len(values),
            }
            best = "max" if better == "higher" else "min"
            entry["value"] = entry[best if pick == "best" else "median"]
            out[name] = entry
        return out


def traced_layers(run: Run) -> dict[str, float]:
    """One more repetition of ``run``, traced → its per-layer metrics."""
    from layers import MAX_OVERHEAD_RATIO, cross_check, layer_metrics

    twin = run.reps[0]
    rep = spawn(run.workload, run.seed, traced=True, smoke=run.smoke)
    run.check(rep)
    if twin["wall_s"] * MAX_OVERHEAD_RATIO < rep["wall_s"] < TRACED_RETRY_BELOW_S:
        # this box's noise only adds time, and a slow spell over the traced
        # child reads as tracing overhead: the faster of two attempts is
        # the better estimate before failing the run on it
        again = spawn(run.workload, run.seed, traced=True, smoke=run.smoke)
        run.check(again)
        rep = min(rep, again, key=lambda r: r["wall_s"])
    layers = layer_metrics(rep, twin)
    problems = cross_check(rep, layers)
    if problems:
        run.problems += problems
        run.failed = run.attempted
    return layers


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------
def print_end_to_end(run: Run, stats: dict) -> None:
    reqs = run.reps[0]["submitted"]
    print(f"== {run.workload}: seed {run.seed}, {len(run.reps)} reps, {reqs} requests/rep ==")
    for name, unit, better, bound, pick in END_TO_END:
        s = stats[name]
        print(
            f"  {name:<22}{s['value']:>14.6g} {unit:<6} {pick} of n={s['n']} "
            f"[min {s['min']:.6g}, median {s['median']:.6g}, max {s['max']:.6g}]"
            f"  ({better} is better, bound {bound:.0%})"
        )


def print_layers(workload: str, layers: dict) -> None:
    print(f"-- {workload}: per-layer (traced run) --")
    for name, unit, _better, moves in PER_LAYER:
        print(f"  {name:<44}{layers[name]:>14.6g} {unit:<12} -> {moves}")


def print_problems(run: Run) -> None:
    for problem in run.problems:
        print(f"  WRONG OUTPUT [{run.workload}]: {problem}")


def driver_line(run: Run, values: dict, table) -> str:
    units = {name: unit for name, unit, *_ in table}
    return json.dumps(
        {
            "correct": not run.problems and run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
        }
    )


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------
def machine_info() -> dict:
    import heapq

    import numpy

    def spin() -> float:
        t0 = time.perf_counter()
        heap, table = [], {}
        for i in range(300_000):
            table[i & 1023] = i
            heapq.heappush(heap, (i * 7919) % 10007)
            if len(heap) > 64:
                heapq.heappop(heap)
        return time.perf_counter() - t0

    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "machine": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibration_spin_s": [round(spin(), 4) for _ in range(3)],
    }


def run_driver(args) -> int:
    run = Run(args.workload, args.seed, args.smoke)
    if args.trace == 0:
        run.measure(reps=args.reps, seconds=args.seconds)
        stats = run.stats()
        print_end_to_end(run, stats)
        print_problems(run)
        print(driver_line(run, {n: s["value"] for n, s in stats.items()}, END_TO_END))
    else:
        run.add(spawn(args.workload, args.seed, smoke=args.smoke))
        layers = traced_layers(run)
        print_layers(args.workload, layers)
        print_problems(run)
        print(driver_line(run, layers, PER_LAYER))
    return 0


def run_manual(args, names) -> int:
    results = {}
    wrong = False
    for name in names:
        run = Run(name, args.seed, args.smoke).measure(reps=args.reps, seconds=args.seconds)
        stats = run.stats()
        print_end_to_end(run, stats)
        entry = {"requests": run.reps[0]["submitted"], "end_to_end": stats}
        if args.traced:
            entry["per_layer"] = traced_layers(run)
            print_layers(name, entry["per_layer"])
        print_problems(run)
        wrong = wrong or bool(run.problems) or run.failed > 0
        results[name] = entry
    if args.json:
        document = {"seed": args.seed, "smoke": args.smoke, **machine_info(), "workloads": results}
        Path(args.json).write_text(json.dumps(document, indent=1) + "\n")
    return 1 if wrong else 0


def run_selfcheck(args, names) -> int:
    """A/A: the same code measured twice must agree within its own bounds."""
    info = machine_info()
    print("selfcheck on", json.dumps(info))
    sets = []
    for _ in range(2):
        sets.append({
            n: Run(n, args.seed, args.smoke).measure(reps=args.reps, seconds=args.seconds)
            for n in names
        })
    failed = False
    for name in names:
        a, b = sets[0][name], sets[1][name]
        print(f"== {name}: A/A relative difference ==")
        for run in (a, b):
            print_problems(run)
            failed = failed or bool(run.problems)
        sa, sb = a.stats(), b.stats()
        for metric, unit, _better, bound, _pick in END_TO_END:
            ma, mb = sa[metric]["value"], sb[metric]["value"]
            diff = abs(mb - ma) / abs(ma)
            verdict = "ok" if diff <= bound else "EXCEEDS"
            failed = failed or diff > bound
            print(f"  {metric:<22}{ma:>14.6g} vs {mb:<14.6g}{unit:<6} diff {diff:7.3%}  bound {bound:.0%}  {verdict}")
    return 1 if failed else 0


def run_pin(args, names) -> int:
    """Record the default seed's simulated outputs as the expected ones."""
    pins = load_expect()
    for name in names:
        rep = spawn(name, DEFAULT_SEED)
        pins[name] = {"submitted": rep["submitted"], "sim": rep["sim"]}
        print(f"pinned {name}: {pins[name]}")
    EXPECT.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--reps", type=int, help="repetitions per workload (default: per workload)")
    parser.add_argument("--seconds", type=float, help="repeat until this much replay wall time")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="driver mode: JSON result on the last line")
    parser.add_argument("--traced", action="store_true", help="add one traced repetition per workload")
    parser.add_argument("--selfcheck", action="store_true", help="measure twice and compare (A/A)")
    parser.add_argument("--smoke", action="store_true", help="~2k requests per workload")
    parser.add_argument("--pin", action="store_true", help="rewrite expect.json from the default seed")
    parser.add_argument("--json", metavar="PATH", help="also write the full result document here")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"run.py: the program under test is missing ({SRC}/repro)", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args.child)
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return run_driver(args)
    if args.pin:
        return run_pin(args, names)
    if args.selfcheck:
        return run_selfcheck(args, names)
    return run_manual(args, names)


if __name__ == "__main__":
    sys.exit(main())

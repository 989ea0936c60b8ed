"""Benchmark of coalstab: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oracle-grid --seed 1 --seconds 30 --trace 0

The run builds its inputs from --seed, runs whole passes over the workload's
fixed task list for about --seconds seconds (at least one pass, two when
tracing), checks every output and prints its metrics, one per line with its
unit, then the result as one JSON object on the last line.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 passes alternate
untraced and traced, and the metrics are the per-layer ones.  See README.md.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from harness import REFERENCE_S, Recorder, median, percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORKLOADS = {"oracle-grid": "oracle_grid", "score-srsg": "score_srsg",
             "cli-readme": "cli_readme"}
END_TO_END = {"wall_s": "s", "task_p50_ms": "ms", "task_p90_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 5  # this process's own setup plus four fresh interpreters
TRACED_ONLY_COUNTS = ("games.utility.calls",)
# rate metric -> the work count it divides by its layer's time
RATE_WORK = {
    "auction.exhaustive_bid_search.weak.space_per_s": "auction.exhaustive_bid_search.weak.space",
    "auction.exhaustive_bid_search.strict.space_per_s":
        "auction.exhaustive_bid_search.strict.space",
    "reserve.check_truthful_sse.combos_per_s": "reserve.check_truthful_sse.combos_checked",
}


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, identical for all workloads;
    a layer a workload never calls reads 0."""
    units = {}

    def layer(base, *counts):
        units[base + ".s"] = "s"
        units[base + ".calls"] = "count"
        for name in counts:
            units[f"{base}.{name}"] = "count"

    for kind in ("weak", "strict"):
        layer(f"auction.exhaustive_bid_search.{kind}", "witnesses", "space")
    layer("auction.coalition_deviates")
    layer("reserve.check_truthful_sse", "combos_checked")
    units.update(dict.fromkeys(RATE_WORK, "1/s"))
    for cls in ("shared", "distinct", "generic"):
        layer(f"games.score_vector.{cls}", "coalitions", "joint_space", "orbit_reps")
    units["games.utility.calls"] = "count"
    for method in ("bruteforce", "structural"):
        layer(f"srsg.count_pair_deviations.{method}", "pairs")
    layer("srsg.induced_game")
    cli = importlib.import_module("cli_readme")
    for name, _ in cli.README_INVOCATIONS + (cli.BUDGET_CUT,):
        units[f"cli.{name}.s"] = "s"
    for workers in ("w1", "wN"):
        units[f"cli.srsg_random_10000_{workers}.s"] = "s"
    units["cli.output_bytes"] = "bytes"
    units["python.startup.s"] = "s"
    units["coalstab.import.s"] = "s"
    layer("auction.count_pair_deviations", "pairs")
    units["srsg.sample_pair_deviation_counts.w1.s"] = "s"
    units["srsg.sample_pair_deviation_counts.wN.s"] = "s"
    units["srsg.sample_pair_deviation_counts.speedup"] = "x"
    units["srsg.sample_pair_deviation_counts.samples"] = "count"
    units["tables.ResultTable.render.s"] = "s"
    units["tables.ResultTable.render.rows"] = "count"
    units["bench.task.s"] = "s"
    units["bench.speed_factor"] = "x"
    units["trace.overhead_s"] = "s"
    units["trace.spans"] = "count"
    return units


def pin_environment(nproc: int) -> dict:
    """Default search budget and one worker unless a call says otherwise."""
    os.environ.pop("COALSTAB_BUDGET", None)
    os.environ["COALSTAB_WORKERS"] = "1"
    return {"COALSTAB_BUDGET": "unset (library default)",
            "COALSTAB_WORKERS": f"1, nproc={nproc} for the wN sampler"}


def provenance(seed: int, env: dict, nproc: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "coalstab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"seed": seed, "nproc": nproc, "python": platform.python_version(),
            "commit": commit, "src_sha256": digest.hexdigest()[:16], **env}


def setup(workload: str, seed: int, rec: Recorder, ctx):
    """Import the package and build the workload's inputs; returns the
    workload module, its pins, its tasks and the normalised seconds taken."""
    start = time.perf_counter()
    coalstab = importlib.import_module("coalstab")
    importlib.import_module("coalstab.cli")  # pulls in every layer
    if Path(coalstab.__file__).resolve().parent != SRC / "coalstab":
        raise SystemExit(f"perfbench: imported coalstab from {coalstab.__file__}, "
                         f"not from {SRC}")
    module = importlib.import_module(WORKLOADS[workload])
    pins = json.loads((BENCH / "pins.json").read_text())
    tasks = module.build(seed, pins, rec, ctx)
    elapsed = time.perf_counter() - start
    rec.setup_factor = REFERENCE_S / rec.speed.probe()
    return module, pins, tasks, elapsed * rec.setup_factor


def setup_samples(args, first: float) -> list:
    samples = [first]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def measure(rec: Recorder, tasks, seconds: float, trace: bool, attribution) -> None:
    """Whole passes until the next one would end after `seconds`; tracing
    runs alternate untraced and traced passes and run at least one of each."""
    start = time.perf_counter()
    if attribution:
        rec.run_pass(attribution, traced=True, label="attribution")
    index = 0
    while True:
        rec.run_pass(tasks, traced=trace and index % 2 == 1)
        index += 1
        elapsed = time.perf_counter() - start
        if index >= (2 if trace else 1) and elapsed + rec.passes[-1]["raw_wall"] > seconds:
            return


def check_counts_repeat(rec: Recorder) -> None:
    """Work counts must be identical in every pass; tracing may only add
    the counts that exist in traced passes alone."""
    passes = [p for p in rec.passes if p["label"] == "pass"]
    reference = {k: v for k, v in passes[0]["counts"].items()
                 if k not in TRACED_ONLY_COUNTS}
    for p in passes:
        counts = {k: v for k, v in p["counts"].items() if k not in TRACED_ONLY_COUNTS}
        if counts != reference:
            rec.attempted += 1
            rec.failed += 1
            rec.wrong += 1
            rec.failures.append("work counts differ between passes")
            return


def best_times(rec: Recorder) -> list:
    """Each task's latency: its best normalised time over the run's passes.
    On a shared machine the slower repetitions are other tenants' doing; the
    best one was the steadiest estimate in ten-run trials (see README)."""
    passes = [p for p in rec.passes if p["label"] == "pass"]
    return [min(p["tasks"][task] for p in passes) for task in passes[0]["tasks"]]


def end_to_end(rec: Recorder, setup: list, with_children: bool) -> dict:
    best = best_times(rec)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"wall_s": sum(best),
            "task_p50_ms": 1000 * median(best),
            "task_p90_ms": 1000 * percentile(best, 90),
            "setup_s": median(setup),
            "peak_rss_mb": peak_kb / 1024}


def per_layer(rec: Recorder, units: dict, probes: dict) -> dict:
    passes = [p for p in rec.passes if p["label"] == "pass"]
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    counts = dict(rec.setup_counts)
    times = {name: t * rec.setup_factor for name, t in rec.setup_times.items()}
    for p in rec.passes:
        if p["label"] == "attribution":
            counts.update(p["counts"])
            times.update(p["self"])
    counts.update(traced[0]["counts"])
    for name in {n for p in traced for n in p["self"]}:
        times[name] = median([p["self"].get(name, 0.0) for p in traced])
    times.update(probes)
    values = {}
    for name, unit in units.items():
        if unit == "s":
            values[name] = times.get(name[:-len(".s")], 0.0)
        else:
            values[name] = counts.get(name, 0)
    for name, work in RATE_WORK.items():
        seconds = values[name.rpartition(".")[0] + ".s"]
        values[name] = values[work] / seconds if seconds else 0.0
    wn = values["srsg.sample_pair_deviation_counts.wN.s"]
    values["srsg.sample_pair_deviation_counts.speedup"] = (
        values["srsg.sample_pair_deviation_counts.w1.s"] / wn if wn else 0.0)
    values["trace.overhead_s"] = (median([p["wall"] for p in traced])
                                  - median([p["wall"] for p in plain]))
    values["trace.spans"] = traced[0]["spans"]
    values["bench.speed_factor"] = median([REFERENCE_S / k for _, k in rec.speed.probes])
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up once and print the seconds it took")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "coalstab" / "__init__.py").is_file():
        print(f"perfbench: no coalstab sources under {SRC}; run from the root "
              "of a coalstab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cpus = sorted(os.sched_getaffinity(0))
    nproc = len(cpus)
    # one CPU for the benchmark and its children, so the speed probes run
    # where the tasks run; only the nproc-worker sampler gets every CPU
    os.sched_setaffinity(0, cpus[:1])
    env = pin_environment(nproc)
    workdir = ROOT / ".perfbench" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = SimpleNamespace(src=str(SRC), workdir=str(workdir), nproc=nproc, cpus=cpus)

    rec = Recorder()
    rec.tracing = bool(args.trace)
    module, pins, tasks, first_setup = setup(args.workload, args.seed, rec, ctx)
    rec.tracing = False
    if args.setup_probe:
        print(json.dumps({"setup_s": first_setup}))
        return 0
    setup_s = setup_samples(args, first_setup)

    attribution = None
    probes = {}
    if args.trace and hasattr(module, "attribution"):
        probes = module.probes(ctx)
        attribution = module.attribution(args.seed, pins, ctx)
    measure(rec, tasks, args.seconds, bool(args.trace), attribution)
    check_counts_repeat(rec)

    info = provenance(args.seed, env, nproc)
    print(f"perfbench {args.workload} seconds={args.seconds:g} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    passes = [p for p in rec.passes if p["label"] == "pass"]
    print(f"passes {len(passes)} of {len(tasks)} tasks; setup samples {len(setup_s)}; "
          f"raw pass walls {[round(p['raw_wall'], 3) for p in passes]}; speed factor "
          f"median {median([REFERENCE_S / k for _, k in rec.speed.probes]):.3f} "
          f"over {len(rec.speed.probes)} probes")
    shown = next(p for p in passes if p["traced"] == bool(args.trace))
    print("work " + json.dumps(dict(sorted(shown["counts"].items()))))
    record = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "workload": args.workload, **info, "passes": rec.passes,
        "probes": rec.speed.probes,
        "spans": [dict(zip(("name", "start", "end", "parent", "task"), span))
                  for span in rec.spans]}))
    print(f"passes and spans written to {record.relative_to(ROOT)}")
    if args.trace:
        units = per_layer_units()
        values = per_layer(rec, units, probes)
    else:
        units = END_TO_END
        values = end_to_end(rec, setup_s, with_children=args.workload == "cli-readme")
        best = best_times(rec)
        print(f"latency samples: {len(best)} tasks, each the best of {len(passes)} passes; "
              f"{sum(v > values['task_p90_ms'] / 1000 for v in best)} beyond p90")
    for name, unit in units.items():
        print(f"{name} {values[name]} {unit}")
    print(f"failed_frac {rec.failed / rec.attempted} ({rec.failed}/{rec.attempted} tasks)")
    for failure in rec.failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": rec.wrong == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

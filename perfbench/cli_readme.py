"""cli-readme: the `coalstab` command as a user runs it.

Every command-line example of the project README runs as its own process,
one at a time (a closed loop with one client), followed by the 10,000-sample
Monte-Carlo invocation at one worker and at nproc workers and the budget-cut
`score` invocation.  Interpreter start and `import coalstab` dominate the
short calls; `deviating_pairs` (the auction sweep) and the sampler, with
`tables` rendering 10k rows, dominate the long ones.  This is the only
workload that exercises `cli`, `tables`, the sampler and its process pool.

The traced run adds in-process attribution calls: interpreter start and
package import probes, the sweep's pair counts, the sampler at both worker
counts and the rendering of its table.

Fixed inputs: the README invocations and the srsg(4,6,2) game file.  Seeded
input: the sampler's `--seed`.
"""

import csv
import hashlib
import os
import subprocess
import sys
import time
from math import comb

from coalstab import auction, games, srsg, tables

from harness import Failed, Task, median
from score_srsg import C01, NAMED

GAME_FILE = "example.json"
SAMPLES = 10_000
SAMPLER = srsg.SrsgInstance(10, 55, 3, srsg.CostFn.linear(55))
SPOT_CHECK_STRIDE = 500
SWEEP_SIZES = range(10, 201, 10)
PROBES = 5
CHILD_TIMEOUT = 120

# (name, arguments) of the README examples; stdout is pinned by sha256
README_INVOCATIONS = (
    ("score_strict_r2", "score --game example.json --profile repeat --kind strict --rmax 2"),
    ("srsg_repeat_both", "srsg --m 4 --n 6 --k 2 --profile repeat --method both"),
    ("srsg_random_1000", "srsg --m 10 --n 55 --k 3 --profile random --samples 1000 --seed 7"),
    ("auction_pairs", "auction --s 40 --count-pairs --eq le"),
    ("auction_table1", "auction --s 40 --table1"),
    ("reserve_sse", "reserve --s 3 --n 3 --v 6,4,2 --x 4,2,1 --check-sse --q-reserve 1/2"),
    ("reserve_lambda", "reserve --s 2 --n 4 --v 9,7,3,1 --x 8,4 --mode star-lambda --lambda 1/8"),
    ("sweep_srsg", "sweep srsg --m 2:6 --n m+1:4m --k 2"),
    ("sweep_auction", "sweep auction --s 10:200:10 --v linear --x linear"),
)
# the README promises exit 3 plus the rows of the sizes that finished
BUDGET_CUT = ("score_budget_cut",
              "score --game example.json --profile repeat --kind strict --rmax 3 --budget 300")


def child_env(src: str, workers: int) -> dict:
    """Environment of every child: this checkout's sources, the default
    search budget and an explicit worker count."""
    env = dict(os.environ)
    env.pop("COALSTAB_BUDGET", None)
    env["COALSTAB_WORKERS"] = str(workers)
    env["PYTHONPATH"] = src
    return env


def _cli_call(argv, cwd, env, cpus=None):
    """One CLI process; `cpus` widens the inherited one-CPU affinity."""
    widen = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    return lambda: subprocess.run([sys.executable, "-m", "coalstab.cli", *argv],
                                  cwd=cwd, env=env, capture_output=True,
                                  timeout=CHILD_TIMEOUT, check=False, preexec_fn=widen)


def _golden_check(pin):
    def check(proc, rec):
        rec.count("cli.output_bytes", len(proc.stdout))
        digest = hashlib.sha256(proc.stdout).hexdigest()
        if proc.returncode != pin["exit"]:
            return f"exit {proc.returncode}, pinned {pin['exit']}: {proc.stderr[-200:]!r}"
        if digest != pin["sha256"]:
            return f"stdout sha256 {digest}, pinned {pin['sha256']}"
        return None
    return check


def _data_rows(stdout: bytes) -> list:
    lines = stdout.decode().splitlines()
    if lines and lines[0].startswith("# provenance: "):
        lines = lines[1:]
    return [",".join(row) for row in csv.reader(lines[1:]) if row]


def _budget_cut_check(expected_rows):
    def check(proc, rec):
        rec.count("cli.output_bytes", len(proc.stdout))
        if proc.returncode != 3:
            return f"exit {proc.returncode}, expected 3 (budget exceeded)"
        rows = _data_rows(proc.stdout)
        if rows != expected_rows:
            if expected_rows[:len(rows)] == rows:
                return Failed(f"partial output has {len(rows)} of the "
                              f"{len(expected_rows)} finished sizes")
            return f"rows {rows}, expected {expected_rows}"
        return None
    return check


def _spot_counts(seed: int) -> dict:
    """Reference pair counts of every SPOT_CHECK_STRIDE-th sample, computed
    from the sample's documented seed (seed * stride + index)."""
    return {i: srsg.count_pair_deviations(
                SAMPLER, srsg.sample_random_ne(SAMPLER, seed * srsg._SEED_STRIDE + i))
            for i in range(0, SAMPLES, SPOT_CHECK_STRIDE)}


def _sampler_checks(spots):
    seen = {}

    def first(proc, rec):
        rec.count("cli.output_bytes", len(proc.stdout))
        seen["stdout"] = proc.stdout
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr[-200:]!r}"
        rows = _data_rows(proc.stdout)
        if len(rows) != SAMPLES:
            return f"{len(rows)} rows, expected {SAMPLES}"
        for i, expected in spots.items():
            if rows[i] != f"random,2,{expected},structural":
                return f"row {i} is {rows[i]!r}, expected count {expected}"
        return None

    def second(proc, rec):
        rec.count("cli.output_bytes", len(proc.stdout))
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr[-200:]!r}"
        if proc.stdout != seen.pop("stdout", None):
            return "output differs between one worker and nproc workers"
        return None

    return first, second


def build(seed, pins, rec, ctx):
    workdir = ctx.workdir
    games.save_game(os.path.join(workdir, GAME_FILE), srsg.game_document(C01, NAMED))
    one = child_env(ctx.src, 1)
    tasks = [Task(f"cli.{name}", f"cli.{name}", _cli_call(args.split(), workdir, one),
                  _golden_check(pins["cli"][name]))
             for name, args in README_INVOCATIONS]
    first, second = _sampler_checks(_spot_counts(seed))
    sampler = (f"srsg --m 10 --n 55 --k 3 --profile random --samples {SAMPLES} "
               f"--seed {seed}").split()
    tasks.append(Task("cli.srsg_random_10000_w1", "cli.srsg_random_10000_w1",
                      _cli_call(sampler, workdir, one), first))
    tasks.append(Task("cli.srsg_random_10000_wN", "cli.srsg_random_10000_wN",
                      _cli_call(sampler, workdir, child_env(ctx.src, ctx.nproc), ctx.cpus),
                      second))
    name, args = BUDGET_CUT
    tasks.append(Task(f"cli.{name}", f"cli.{name}", _cli_call(args.split(), workdir, one),
                      _budget_cut_check(pins["cli_budget_cut_rows"])))
    return tasks


# ---------------------------------------------------------------------------
# traced run only: in-process attribution
# ---------------------------------------------------------------------------

def _probe_seconds(code: str, env: dict, cwd: str, inner: bool) -> float:
    """Median over PROBES child interpreters of either the child's whole
    lifetime or the time the child itself reports."""
    samples = []
    for _ in range(PROBES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                              capture_output=True, timeout=CHILD_TIMEOUT, check=True)
        elapsed = time.perf_counter() - start
        samples.append(float(proc.stdout) if inner else elapsed)
    return median(samples)


def probes(ctx) -> dict:
    env = child_env(ctx.src, 1)
    workdir = ctx.workdir
    return {
        "python.startup": _probe_seconds("pass", env, workdir, inner=False),
        "coalstab.import": _probe_seconds(
            "import time; t = time.perf_counter(); import coalstab.cli; "
            "print(time.perf_counter() - t)", env, workdir, inner=True),
    }


def attribution(seed, pins, ctx) -> list:
    tasks = []
    for index, s in enumerate(SWEEP_SIZES):
        inst = auction.make_instance(s, auction.ShapeSpec("linear", 2 * s),
                                     auction.ShapeSpec("linear", s))
        expected = pins["sweep_auction_d2"][index]
        tasks.append(Task(
            f"attr.pairs.s{s}", "auction.count_pair_deviations",
            lambda i=inst: auction.count_pair_deviations(i, auction.LE),
            lambda got, rec, e=expected: None if got == e else f"{got} pairs, pinned {e}",
            {"auction.count_pair_deviations.pairs": comb(s + 1, 2)}))
    results = {}

    def sample(workers):
        pinned = os.sched_getaffinity(0)
        os.sched_setaffinity(0, ctx.cpus[:workers])  # the pool inherits it
        try:
            results[workers] = srsg.sample_pair_deviation_counts(SAMPLER, SAMPLES, seed,
                                                                 workers=workers)
        finally:
            os.sched_setaffinity(0, pinned)
        return results[workers]

    def same_as_one_worker(counts, rec):
        return None if counts == results.get(1) else "counts differ from one worker"

    def keep_table(counts, rec):
        table = tables.ResultTable(("profile", "r", "count", "method"))
        for count in counts:
            table.append("random", 2, count, "structural")
        results["table"] = table
        return None

    def render_check(text, rec):
        back = tables.ResultTable.from_csv(text)
        got = [row[2] for row in back.rows]
        return None if got == results.get(1) else "rendered rows do not round-trip"

    sampled = {"srsg.sample_pair_deviation_counts.samples": SAMPLES}
    tasks.append(Task("attr.sampler.w1", "srsg.sample_pair_deviation_counts.w1",
                      lambda: sample(1), keep_table, sampled))
    tasks.append(Task("attr.sampler.wN", "srsg.sample_pair_deviation_counts.wN",
                      lambda: sample(ctx.nproc), same_as_one_worker))
    tasks.append(Task("attr.render", "tables.ResultTable.render",
                      lambda: results["table"].render("csv"), render_check,
                      {"tables.ResultTable.render.rows": SAMPLES}))
    return tasks

"""oracle-grid: the exact validation oracles of the auction modules.

`auction.exhaustive_bid_search` scans grid rebids with exact `Fraction`
utilities from `gsp_outcome`, and `reserve.check_truthful_sse` integrates
expected utilities with `_lean_expected_utility`; together they are almost
all of the work.  Strict scans find no witness and so visit the whole grid,
while weak scans stop at the first witness, so per-candidate speed and early
exit show separately.  This workload never calls `games`, `srsg` or
`deviating_pairs`.

Fixed inputs: the acceptance suite's grid instances and its reserve
instances.  Seeded inputs: a few random 2x2 reserve instances, small enough
that their seed-dependent cost stays far below the median task.
"""

import itertools
import random
import warnings
from fractions import Fraction

from coalstab import auction, reserve
from coalstab.errors import ContractWarning

from harness import Task

REFINE = 4

# the acceptance suite's grid instances
GRID_INSTANCES = (
    auction.AuctionInstance(2, (10, 6, 2), (2, 1)),
    auction.AuctionInstance(3, (12, 9, 7, 4), (8, 5, 3)),
    auction.AuctionInstance(3, (16, 13, 11, 8, Fraction(1, 8), Fraction(1, 16)),
                            (8, 5, 3)),
)
# (instance index, largest coalition size, sizes scanned strictly)
GRID_PLAN = ((0, 2, (2,)), (1, 3, (2,)), (2, 2, (2,)))

SQUARE = auction.AuctionInstance(3, (6, 4, 2), (4, 2, 1))
SPARE = auction.AuctionInstance(3, (8, 6, 4, 2), (4, 2, 1))
FOUR = auction.AuctionInstance(4, (9, 7, 5, 3), (8, 4, 2, 1))
RANDOM_RESERVE_INSTANCES = 3

EBS = "auction.exhaustive_bid_search"


def _weak_check(inst, eq, members):
    def check(out, rec):
        if out is not None:
            rec.count(EBS + ".weak.witnesses")
        rec.count("auction.coalition_deviates.calls")
        with rec.span("auction.coalition_deviates"):
            predicted = auction.coalition_deviates(inst, eq, members)
        if predicted != (out is not None):
            return f"pair reduction says {predicted}, grid witness {out}"
        return None
    return check


def _strict_check(out, rec):
    if out is not None:
        rec.count(EBS + ".strict.witnesses")
        return f"strict witness {out} where none exists"
    return None


def _grid_tasks():
    tasks = []
    for index, largest, strict_sizes in GRID_PLAN:
        inst = GRID_INSTANCES[index]
        for eq in (auction.LE, auction.UE):
            bids = auction.equilibrium_bids(inst, eq)
            grid = len(auction.bid_grid(inst, bids, REFINE))
            for r in range(2, largest + 1):
                for members in auction.iter_potential_coalitions(inst.s, inst.n, r):
                    label = f"grid{index}.{eq}.{'-'.join(map(str, members))}"
                    kinds = ("weak", "strict") if r in strict_sizes else ("weak",)
                    for kind in kinds:
                        check = (_weak_check(inst, eq, members) if kind == "weak"
                                 else _strict_check)
                        tasks.append(Task(
                            f"{label}.{kind}", f"{EBS}.{kind}",
                            lambda i=inst, b=bids, m=members, k=kind:
                                auction.exhaustive_bid_search(i, b, m, k, REFINE),
                            check, {f"{EBS}.{kind}.space": grid ** r}))
    return tasks


def _independent_combo_count(inst, refine, v_max):
    """Grid misreport combos the certification search must visit when it
    finds nothing: distinct reports that avoid every outsider's value."""
    grids = [reserve.misreport_grid(inst, i, refine, v_max) for i in range(inst.n)]
    total = 0
    for size in range(1, inst.n + 1):
        for members in itertools.combinations(range(inst.n), size):
            others = {inst.values[i] for i in range(inst.n) if i not in members}
            for combo in itertools.product(*(grids[i] for i in members)):
                if len(set(combo)) == size and not others.intersection(combo):
                    total += 1
    return total


def _sse_call(inst, cfg, refine):
    def call():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ContractWarning)
            return reserve.check_truthful_sse(inst, cfg, refine)
    return call


def _pinned_sse_check(pin):
    def check(verdict, rec):
        rec.count("reserve.check_truthful_sse.combos_checked", verdict.combos_checked)
        got = {"certified": verdict.certified,
               "members": list(verdict.members) if verdict.members else None,
               "combos_checked": verdict.combos_checked}
        return None if got == pin else f"verdict {got}, pinned {pin}"
    return check


def _certified_check(expected_combos):
    def check(verdict, rec):
        rec.count("reserve.check_truthful_sse.combos_checked", verdict.combos_checked)
        if not verdict.certified:
            return f"deviation {verdict.members} at {verdict.reports} with s >= n"
        if verdict.combos_checked != expected_combos:
            return f"checked {verdict.combos_checked} combos, expected {expected_combos}"
        return None
    return check


def _reserve_tasks(seed, pins):
    half = Fraction(1, 2)
    cases = [(f"square.q{q}.refine{refine}", SQUARE, reserve.VcgStarConfig(q), refine)
             for q in (Fraction(1, 4), half) for refine in (1, 2)]
    cases += [("square.q0", SQUARE, reserve.VcgStarConfig(0), 1),
              ("spare.q1/2.vmax16", SPARE, reserve.VcgStarConfig(half, 16), 1),
              ("four.q1/2.refine1", FOUR, reserve.VcgStarConfig(half), 1)]
    tasks = [Task(f"sse.{name}", "reserve.check_truthful_sse",
                  _sse_call(inst, cfg, refine), _pinned_sse_check(pins[name]))
             for name, inst, cfg, refine in cases]
    rng = random.Random(seed)
    for i in range(RANDOM_RESERVE_INSTANCES):
        values = sorted(rng.sample(range(1, 40), 2), reverse=True)
        ctrs = sorted(rng.sample(range(1, 30), 2), reverse=True)
        inst = auction.AuctionInstance(2, values, ctrs)
        cfg = reserve.VcgStarConfig(half)
        expected = _independent_combo_count(inst, 1, cfg.resolved_v_max(inst))
        tasks.append(Task(f"sse.random{i}", "reserve.check_truthful_sse",
                          _sse_call(inst, cfg, 1), _certified_check(expected)))
    return tasks


def build(seed, pins, rec, ctx):
    return _grid_tasks() + _reserve_tasks(seed, pins["reserve"])

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import pytest
from hypothesis import settings

from coalstab import auction, games, reserve, srsg
from coalstab.errors import ContractError, InputError

# every property test is reproducible and untimed; each sets only max_examples
settings.register_profile("coalstab", derandomize=True, deadline=None)
settings.load_profile("coalstab")

# The 4-resource, 6-agent, 2-step instance with unit-slope costs and its three
# named equilibria: "repeat" keeps the same partition twice, "split" breaks up
# the doubled resources across steps, "rotate" pairs each doubled agent with a
# previously solo agent.
REPEAT = ((0, 0, 1, 1, 2, 3), (0, 0, 1, 1, 2, 3))
SPLIT = ((0, 0, 1, 1, 2, 3), (0, 1, 0, 1, 2, 3))
ROTATE = ((0, 0, 1, 1, 2, 3), (0, 1, 2, 3, 0, 1))


def _two_by_one(utilities):
    """A game document for 2 players with (2, 1) actions and profile p."""
    return {"format": games.GAME_FORMAT, "version": 1, "players": 2,
            "action_counts": [2, 1], "profiles": {"p": [0, 0]}, "utilities": utilities}


def _entries(*payoffs):
    """The table entries of `_two_by_one` for profiles (0, 0) and (1, 0)."""
    return [{"profile": [a, 0], "payoffs": list(p)} for a, p in enumerate(payoffs)]


def _table(**changes):
    """A valid `_two_by_one` table document with top-level `changes`; a
    change to None drops the key."""
    doc = {**_two_by_one({"kind": "table", "entries": _entries(
        ["1/1", "0/1"], ["2/1", "1/1"])}), **changes}
    return {key: value for key, value in doc.items() if value is not None}


def _srsg_doc(**params):
    """The srsg(2,3,2) generator document, its header and profile p
    written out, with `params` replacing the generator's."""
    doc = _two_by_one({"kind": "generator", "name": "srsg", "params": {
        "m": 2, "n": 3, "k": 2, "cost": ["1", "2", "3"], **params}})
    return {**doc, "players": 3, "action_counts": [4, 4, 4],
            "profiles": {"p": [0, 0, 0]}}


# Valid game documents, one of each utilities kind, built fresh per call.
VALID_DOCUMENTS = {"table": _table, "srsg": _srsg_doc}

# Game documents that must fail at load, each for the reason in its name.
BAD_DOCUMENTS = {
    "short_payoffs": _two_by_one({"kind": "table", "entries": [
        {"profile": [0, 0], "payoffs": ["1/1", "0/1"]},
        {"profile": [1, 0], "payoffs": ["2/1"]}]}),
    "action_out_of_range": _two_by_one({"kind": "table", "entries": [
        {"profile": [0, 0], "payoffs": ["1/1", "0/1"]},
        {"profile": [5, 0], "payoffs": ["2/1", "1/1"]}]}),
    "header_disagrees": {**_two_by_one({"kind": "generator", "name": "srsg",
                                        "params": {"m": 2, "n": 3, "k": 2}}),
                         "profiles": {"p": [0, 0, 0]}},
    "top_level_list": [],
    "players_string": _table(players="2"),
    "action_counts_string": _table(action_counts="22"),
    "entries_not_a_list": _table(utilities={"kind": "table", "entries": 5}),
    "profiles_not_a_mapping": _table(profiles=["a"]),
    "players_missing": _table(players=None),
    "entries_missing": _table(utilities={"kind": "table"}),
    "payoffs_missing": _table(utilities={"kind": "table", "entries": [
        {"profile": [0, 0], "payoffs": ["1/1", "0/1"]}, {"profile": [1, 0]}]}),
    "payoff_not_rational": _table(utilities={"kind": "table", "entries": _entries(
        ["1/1", "0/1"], ["abc", "1/1"])}),
    "payoff_zero_denominator": _table(utilities={"kind": "table", "entries": _entries(
        ["1/1", "0/1"], ["1/0", "1/1"])}),
    "generator_cost_zero_denominator": _srsg_doc(cost=["1", "1/0", "3"]),
    "generator_n_string": _srsg_doc(n="x"),
    "generator_n_float": _srsg_doc(n=3.9),  # once scored as n = 3
}


@pytest.fixture(scope="session")
def small_instance():
    return srsg.SrsgInstance(4, 6, 2, srsg.CostFn.linear(6))


@pytest.fixture(scope="session")
def small_game(small_instance):
    return srsg.induced_game(small_instance)


@pytest.fixture(scope="session")
def named_profiles():
    return {"repeat": REPEAT, "split": SPLIT, "rotate": ROTATE}


def random_auction(rng: random.Random, s: int, n: int) -> auction.AuctionInstance:
    values = sorted(rng.sample(range(1, 50 * n), n), reverse=True)
    ctrs = sorted(rng.sample(range(1, 40 * s), s), reverse=True)
    return auction.AuctionInstance(s, values, ctrs)


def vcg_utilities(inst: auction.AuctionInstance, reports: Sequence) -> tuple:
    """Every bidder's utility in the truthful auction on `reports` (pairwise
    distinct, one per bidder): slots go by report, each winner pays its
    `vcg_payments` price on the reports in that order, losers get 0."""
    order = sorted(range(inst.n), key=lambda i: reports[i], reverse=True)
    prices = auction.vcg_payments(inst, [reports[i] for i in order])
    utilities = [Fraction(0)] * inst.n
    for slot, (bidder, price) in enumerate(zip(order, prices), start=1):
        utilities[bidder] = (inst.values[bidder] - price) * inst.ctr(slot)
    return tuple(utilities)


def judged_vcg_deviations(inst: auction.AuctionInstance, r: int) -> int:
    """How many size-r potential coalitions have a weak deviation from
    truth-telling, each judged by `games.first_deviation` on
    `vcg_utilities`.  A coalition of two or more is judged on
    `vcg_coalition_deviation`'s misreport.  The construction refuses a
    single bidder (ContractError), whose reports at the midpoint of every
    gap between 0, the values and twice the top value are judged instead,
    so that it can take every rank."""
    truthful = vcg_utilities(inst, inst.values)
    points = sorted({Fraction(0), *inst.values, 2 * inst.values[0]})
    midpoints = [(a + b) / 2 for a, b in zip(points, points[1:])]
    count = 0
    for members in auction.iter_potential_coalitions(inst.s, inst.n, r):
        indices = [rank - 1 for rank in members]
        if r > 1:
            candidates = [auction.vcg_coalition_deviation(inst, members)]
        else:
            with pytest.raises(ContractError):
                auction.vcg_coalition_deviation(inst, members)
            candidates = list(games.rebids(inst.values, indices,
                                           [(b,) for b in midpoints]))
        found = games.first_deviation(
            candidates, indices, [truthful[i] for i in indices],
            lambda i, reports: vcg_utilities(inst, reports)[i], games.WEAK)
        count += found is not None
    return count


def brute_force_sse(inst: auction.AuctionInstance, cfg: reserve.VcgStarConfig,
                    refine: int, max_coalition: int) -> tuple:
    """The oracle of `reserve.check_truthful_sse`, with its candidates written
    by hand: for each coalition in the same order, the product of its
    members' `misreport_grid`s written into a copy of the truthful reports;
    combos whose n reports are not pairwise distinct (a member ties another
    or an outsider's value) are skipped; each is scored with the public
    `expected_utilities_vcg_star` and judged by the weak rule (no member
    loses, one gains).  Returns (certified, members, reports, combos)."""
    v_max = cfg.resolved_v_max(inst)
    truthful = reserve.expected_utilities_vcg_star(inst, cfg)
    grids = [reserve.misreport_grid(inst, i, refine, v_max) for i in range(inst.n)]
    combos = 0
    for size in range(1, max_coalition + 1):
        for members in itertools.combinations(range(inst.n), size):
            for joint in itertools.product(*(grids[i] for i in members)):
                reports = list(inst.values)
                for i, b in zip(members, joint):
                    reports[i] = b
                if len(set(reports)) < inst.n:
                    continue
                combos += 1
                moved = reserve.expected_utilities_vcg_star(inst, cfg, reports)
                gains = [moved[i] - truthful[i] for i in members]
                if min(gains) >= 0 and max(gains) > 0:
                    return False, members, tuple(reports), combos
    return True, None, None, combos


def reference_bid_grid(bids: Sequence, refine: int) -> tuple:
    """The oracle of `auction.bid_grid`, on `Fraction`s: the bids plus
    2*refine - 1 evenly spaced interior points of each gap between 0, the
    sorted distinct bids and twice the top bid."""
    anchors = sorted({Fraction(b) for b in bids})
    fences = [Fraction(0), *anchors, 2 * anchors[-1]]
    points = set(anchors)
    for a, b in zip(fences, fences[1:]):
        step = (b - a) / (2 * refine)
        points.update(a + step * t for t in range(1, 2 * refine))
    return tuple(sorted(points))


def reference_misreport_grid(inst: auction.AuctionInstance, agent: int,
                             refine: int, v_max) -> tuple:
    """The oracle of `reserve.misreport_grid`, on `Fraction`s: 2^refine - 1
    evenly spaced interior points of each cell between 0, the values and
    v_max, plus the agent's value moved either way by the smallest cell
    over 2^(refine+1), inside (0, v_max)."""
    fences = sorted(set(inst.values) | {Fraction(0), Fraction(v_max)})
    points = set()
    for a, b in zip(fences, fences[1:]):
        step = (b - a) / 2 ** refine
        points.update(a + step * t for t in range(1, 2 ** refine))
    delta = min(b - a for a, b in zip(fences, fences[1:])) / 2 ** (refine + 1)
    own = inst.values[agent]
    points.update((own - delta, own + delta))
    points.discard(own)
    return tuple(sorted(p for p in points if 0 < p < v_max))


def gsp_utility(value, bid, others: Sequence, ctrs: Sequence):
    """One bidder's GSP utility, written apart from the library: with value
    `value`, bidding `bid` against the other nonnegative bids `others` (none
    equal to `bid`), it takes slot 1 + (bids above), pays the highest bid
    below (0 if none) per click, and gets 0 past the last slot."""
    rank = sum(1 for other in others if other > bid)
    if rank >= len(ctrs):
        return 0
    price = max((other for other in others if other < bid), default=0)
    return (value - price) * ctrs[rank]


# The Fraction oracle of the pair move at a boundary equilibrium: the
# library decides every pair on scaled ints (`auction._deviation_thresholds`),
# and these two independent routes check it.

def value_for(inst: auction.AuctionInstance, eq: str, rank: int):
    """The value the boundary recursion attaches to rank `rank`."""
    return inst.value(rank - 1) if eq == auction.UE else inst.value(rank)


def pair_gain(inst: auction.AuctionInstance, eq: str, k: int, j: int):
    """Exact utility change of agent k when the pair (k, j) plays its one
    available joint move (j shades to the bid below, k takes slot j-1), in
    closed form.  The j = s+1 case treats the shaded bid as escapable to
    zero, which is exact when no bidder holds rank s+2."""
    loss = 0  # forfeited margin over slots k..j-2
    for t in range(k + 1, j):
        loss += (inst.ctr(t - 1) - inst.ctr(t)) * (inst.value(k) - value_for(inst, eq, t))
    tail = 0
    if j <= inst.s:
        acc = sum((inst.ctr(i - 1) - inst.ctr(i)) * value_for(inst, eq, i)
                  for i in range(j + 1, inst.s + 2))
        tail = acc / inst.ctr(j)
    return (inst.ctr(j - 1) - inst.ctr(j)) * (value_for(inst, eq, j) - tail) - loss


def simulate_pair_deviation(inst: auction.AuctionInstance, eq: str, k: int, j: int):
    """Agent k's utility after the pair move, read off the bid vector: k
    holds slot j-1 and pays the bid of rank j+1 (0 past the last bidder)."""
    bids = auction.equilibrium_bids(inst, eq)
    price = bids[j] if j < len(bids) else 0
    return (inst.value(k) - price) * inst.ctr(j - 1)


# Independent oracles.  The library never calls these; tests compare its
# answers against them.

def vcg_payments_recursive(inst: auction.AuctionInstance) -> tuple:
    """Independent route to the prices of `welfare_prices` (its oracle):
    bottom-up averaging
    b_{s+1} = v_{s+1}, b_i = (1-x_i/x_{i-1}) v_i + (x_i/x_{i-1}) b_{i+1},
    then p_j = b_{j+1}.  (Peeling one term off the direct sum shows the drop
    share of x_{i-1} carries v_i and the rest carries the previous price.)"""
    bids = {inst.s + 1: inst.value(inst.s + 1)}
    for i in range(inst.s, 1, -1):
        alpha = inst.ctr(i) / inst.ctr(i - 1)
        bids[i] = (1 - alpha) * inst.value(i) + alpha * bids[i + 1]
    winners = min(inst.s, inst.n)
    return tuple(bids[j + 1] for j in range(1, winners + 1))


def verify_symmetric_ne(inst: auction.AuctionInstance, bids: Sequence) -> bool:
    """Envy-freeness: no bidder prefers any slot at that slot's current price,
    and no loser would profit from any slot."""
    outcome = auction.gsp_outcome(inst, bids)
    slots = len(outcome.payments)
    for position, bidder in enumerate(outcome.ranking, start=1):
        value = inst.values[bidder]
        current = outcome.utilities[bidder]
        for slot in range(1, slots + 1):
            if (value - outcome.payments[slot - 1]) * inst.ctr(slot) > current:
                return False
    return True


@dataclass(frozen=True)
class ShapeInfo:
    is_convex: bool
    is_concave: bool
    convex_beta: Optional[Fraction]  # largest certified shrink factor
    concave_beta: Optional[Fraction]  # largest certified growth factor

    @property
    def kind(self) -> str:
        if self.is_convex and self.is_concave:
            return "linear"
        if self.is_convex:
            return "convex"
        if self.is_concave:
            return "concave"
        return "neither"


def classify_shape(vector: Sequence) -> ShapeInfo:
    """Exact convexity/concavity flags of a decreasing positive vector plus
    the largest beta each direction certifies."""
    vec = tuple(Fraction(v) for v in vector)
    if len(vec) < 2:
        raise InputError("need at least two entries to classify")
    if vec[-1] <= 0 or not auction._strictly_decreasing(vec):
        raise InputError("classification expects a strictly decreasing "
                         "positive vector")
    drops = [a - b for a, b in zip(vec, vec[1:])]
    is_convex = all(a >= b for a, b in zip(drops, drops[1:]))
    is_concave = all(a <= b for a, b in zip(drops, drops[1:]))
    convex_beta = None
    concave_beta = None
    if len(drops) >= 2:  # a single drop constrains nothing
        if is_convex:
            convex_beta = min(a / b for a, b in zip(drops, drops[1:]))
        if is_concave:
            concave_beta = min(b / a for a, b in zip(drops, drops[1:]))
    return ShapeInfo(is_convex, is_concave, convex_beta, concave_beta)


def total_cost(inst: srsg.SrsgInstance, assignment: Sequence, agent: int):
    """Sum over steps of the cost of the agent's resource at its load."""
    assignment = srsg.validate_assignment(inst, assignment)
    if not 0 <= agent < inst.n:
        raise InputError(f"agent {agent} out of range")
    values = inst.cost.values
    return sum(values[row.count(row[agent]) - 1] for row in assignment)


def profile_to_assignment(inst: srsg.SrsgInstance, profile: Sequence) -> tuple:
    """Decode each action by repeated division: step t is its t-th base-m
    digit, step 0 lowest."""
    rows = [[0] * inst.n for _ in range(inst.k)]
    for agent, action in enumerate(profile):
        for row in rows:
            action, row[agent] = divmod(action, inst.m)
    return tuple(tuple(row) for row in rows)


def expected_pair_deviations(inst: srsg.SrsgInstance, form: str = "collision"):
    """Approximate expected number of strictly deviating pairs at a random
    equilibrium (`srsg.exact_expected_pair_deviations` is the exact
    expectation).

    "collision" treats each pair's chance of landing on an overfull shared
    resource as q/m^2 per step, independent across steps, and evaluates the
    resulting two-of-k binomial tail in exact rationals; "exponential_approx"
    is the closed-form Poisson-style approximation with rate q(k-1)/m^2, a
    float.
    """
    pairs = math.comb(inst.n, 2)
    if form == "collision":
        return pairs * srsg._two_or_more_of(inst.k, Fraction(inst.q, inst.m ** 2))
    if form == "exponential_approx":
        alpha = inst.q * (inst.k - 1) / inst.m ** 2
        return pairs * (1.0 - (1.0 + alpha) * math.exp(-alpha))
    raise InputError("form must be 'collision' or 'exponential_approx'")


def is_nash_profile(game: games.FiniteGame, profile: Sequence) -> bool:
    """Independent best-response scan: no unilateral strictly improving move."""
    profile = game.validate_profile(profile)
    work = list(profile)
    for i in range(game.player_count):
        current = game.utility(i, profile)
        original = work[i]
        for a in range(game.action_counts[i]):
            if a == original:
                continue
            work[i] = a
            if game.utility(i, tuple(work)) > current:
                work[i] = original
                return False
        work[i] = original
    return True

"""Sequential resource-selection games over identical resources.

Agents pick one of m identical resources in each of k independent steps and
pay the load-dependent cost of their choice per step.  With a convex cost
function the pure equilibria are exactly the assignments that are nearly
balanced in every step, and a pair of agents can strictly gain by a joint
move if and only if they share an overfull resource in at least two steps;
that structural rule makes pair counting cheap, while the generic exhaustive
search over the induced finite game stays available as an independent check.
"""

import functools
import itertools
import os
import random
from fractions import Fraction
from math import ceil, comb, exp
from typing import Optional, Sequence

from . import games
from .errors import ContractError, InputError
from .records import Record

Assignment = tuple  # k rows of n resource indices in range(m)


class CostFn(Record):
    """Nondecreasing per-load cost table; values[t-1] is the cost at load t.
    Each value is an int, a Fraction or rational text; a float or a bool is
    an InputError (`games.exact_rational`)."""

    values: tuple

    def __post_init__(self):
        values = tuple(v if type(v) is int else games.exact_rational(v, "cost")
                       for v in self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise InputError("cost function needs at least one value")
        if any(v < 0 for v in values):
            raise InputError("costs must be nonnegative")
        if any(a > b for a, b in zip(values, values[1:])):
            raise InputError("costs must be nondecreasing in the load")

    @classmethod
    def linear(cls, n: int) -> "CostFn":
        """c(t) = t, the canonical strictly convex cost."""
        return cls(tuple(range(1, n + 1)))

    @property
    def is_convex(self) -> bool:
        """Increasing marginal loss: c(i+1)-c(i) nondecreasing in i."""
        diffs = [b - a for a, b in zip(self.values, self.values[1:])]
        return all(x <= y for x, y in zip(diffs, diffs[1:]))


class SrsgInstance(Record):
    m: int  # resources
    n: int  # agents
    k: int  # steps
    cost: CostFn

    def __post_init__(self):
        if not all(type(x) is int for x in (self.m, self.n, self.k)):  # nor a bool
            raise InputError("m, n and k must be ints")
        if min(self.m, self.n, self.k) < 2:
            raise InputError("m, n and k must all be at least 2")
        if len(self.cost.values) < self.n:
            raise InputError("cost function must be defined up to load n")

    @property
    def q(self) -> int:
        """Number of overfull resources in a nearly balanced partition."""
        return self.n % self.m

    @property
    def full_load(self) -> int:
        return ceil(self.n / self.m)


def validate_assignment(inst: SrsgInstance, assignment: Sequence) -> Assignment:
    rows = tuple(tuple(row) for row in assignment)
    if len(rows) != inst.k:
        raise InputError(f"assignment has {len(rows)} steps, expected {inst.k}")
    for row in rows:
        if len(row) != inst.n:
            raise InputError("each step needs one resource per agent")
        for r in row:
            if not (type(r) is int and 0 <= r < inst.m):  # nor a bool
                raise InputError(f"resource index {r!r} out of range")
    return rows


def _groups(m: int, row: Sequence) -> list:
    """groups[r] = the agents on resource r in one step's `row`, ascending."""
    groups = [[] for _ in range(m)]
    for agent, r in enumerate(row):
        groups[r].append(agent)
    return groups


def is_nash(inst: SrsgInstance, assignment: Sequence) -> bool:
    """No agent can lower its cost at any single step by switching resources.

    Steps are independent, so per-step optimality of every agent is exactly
    unilateral optimality in the whole game.  Costs are nondecreasing in the
    load, so at each step the agents on a fullest resource pay the most and
    joining an emptiest one costs the least.
    """
    values = inst.cost.values
    for row in validate_assignment(inst, assignment):
        loads = [row.count(r) for r in range(inst.m)]
        if values[max(loads) - 1] > values[min(loads)]:
            return False
    return True


def _nearly_balanced_partition(inst: SrsgInstance) -> tuple:
    """Agents grouped consecutively: the first q resources take one extra."""
    row = []
    for resource in range(inst.m):
        row += [resource] * (inst.full_load if resource < inst.q else inst.n // inst.m)
    return tuple(row)


def build_repeat_ne(inst: SrsgInstance) -> Assignment:
    """The same nearly balanced partition at every step.

    This is the least pair-stable equilibrium: every pair inside an overfull
    group shares it in all k steps.
    """
    if not inst.cost.is_convex:
        raise ContractError("repeat construction is analysed for convex costs")
    row = _nearly_balanced_partition(inst)
    return tuple(row for _ in range(inst.k))


def build_scatter_ne(inst: SrsgInstance) -> Assignment:
    """Two-step equilibrium whose second step breaks up first-step groups.

    When q <= m/2 the second step just relocates one agent from each overfull
    resource to a distinct previously-underfull one, so no resource is
    overfull twice.  Otherwise agents are re-dealt round-robin in first-step
    group order, which keeps any two first-step roommates apart whenever
    groups have at most m members (n < m*m).
    """
    if inst.k != 2:
        raise InputError("scatter construction is defined for exactly 2 steps")
    if not inst.cost.is_convex:
        raise ContractError("scatter construction is analysed for convex costs")
    first = _nearly_balanced_partition(inst)
    q, m = inst.q, inst.m
    if q == 0:
        return (first, first)
    groups = _groups(m, first)
    second = list(first)
    if 2 * q <= m:
        for f in range(q):
            second[groups[f][-1]] = q + f  # targets are distinct underfull resources
    else:
        for position, agent in enumerate(a for group in groups for a in group):
            second[agent] = position % m
    return (first, tuple(second))


def _permutation_steps(n: int) -> tuple:
    """`_permutation`'s steps for n items: the pool index each one fills
    and the width of the `getrandbits` draws that pick its item."""
    return tuple((last, (last + 1).bit_length()) for last in range(n - 1, -1, -1))


def _permutation(getrandbits, pool: list, steps: tuple) -> None:
    """Permute `pool` in place into `random.Random.sample(pool, len(pool))`
    read backwards, for the generator that owns `getrandbits`, leaving the
    generator in the state `sample` leaves it in.

    At k = n `sample` always takes its pool branch: draw j below the pool
    size by rejection on `getrandbits`, take pool[j] and fill its place from
    the pool's end.  Here the taken items collect at the end instead.
    """
    for last, bits in steps:
        j = getrandbits(bits)
        while j > last:
            j = getrandbits(bits)
        pool[j], pool[last] = pool[last], pool[j]


def _deal(inst: SrsgInstance, rng: random.Random, pool: list,
          steps: tuple) -> list:
    """Deal one step's agents to the resources; returns the overfull
    resources in increasing order.

    `pool` holds the n agents in index order and is permuted in place.
    Read from its end, it is cut into m chunks, chunk r on resource r: the
    q overfull resources (a uniform choice) take ceil(n/m) agents, the
    others floor(n/m).  So chunk r ends at pool index n - r*floor(n/m) - (the
    number of overfull resources below r).  That hits every nearly balanced
    row with equal probability (the chunk-internal orderings contribute a
    constant factor).
    """
    _permutation(rng.getrandbits, pool, steps)
    return sorted(rng.sample(range(inst.m), inst.q))


def _random_balanced_row(inst: SrsgInstance, rng: random.Random,
                         steps: tuple) -> tuple:
    """Uniform draw over rows whose load multiset is nearly balanced."""
    pool = list(range(inst.n))
    overfull = _deal(inst, rng, pool, steps)
    base = inst.n // inst.m
    row = [0] * inst.n
    stop = inst.n
    for resource in range(inst.m):
        start = stop - base - (resource in overfull)
        for agent in pool[start:stop]:
            row[agent] = resource
        stop = start
    return tuple(row)


def _check_count(value, name: str) -> None:
    """Refuse a seed or a sample count that is no int (a bool or a float;
    `random.Random` seeds a float with its hash) or is negative (it seeds
    with the absolute value)."""
    if type(value) is not int:  # nor a bool
        raise InputError(f"{name} must be an int, got {value!r}")
    if value < 0:
        raise InputError(f"{name} must be nonnegative")


def sample_random_ne(inst: SrsgInstance, seed: int) -> Assignment:
    """Independent uniformly random nearly balanced partition per step.  The
    seed must be a nonnegative int (`_check_count`)."""
    _check_count(seed, "seed")
    if not inst.cost.is_convex:
        raise ContractError("random nearly balanced rows are equilibria only "
                            "for convex costs")
    rng = random.Random(seed)
    steps = _permutation_steps(inst.n)
    return tuple(_random_balanced_row(inst, rng, steps) for _ in range(inst.k))


def _pairs_met_twice(bits: list, groups) -> int:
    """Count the agent pairs that meet in two or more of `groups` (agent
    lists, the full groups of every step); bits[a] is 1 << a.

    Each agent keeps two masks: `once`, the agents it has met (itself
    included), and `twice`, those it has met again.  A group of c agents
    costs c mask updates.  An agent with a nonzero `twice` has its own bit
    in it, so the pairs are the other bits, each pair seen from both ends.
    """
    once = [0] * len(bits)
    twice = [0] * len(bits)
    for group in groups:
        mask = sum(map(bits.__getitem__, group))
        for agent in group:
            twice[agent] |= once[agent] & mask
            once[agent] |= mask
    return (sum(map(int.bit_count, twice)) - len(twice) + twice.count(0)) // 2


def _structural_pair_count(inst: SrsgInstance, assignment: Assignment) -> int:
    """Count pairs sharing an overfull resource in two or more steps."""
    if inst.q == 0:
        return 0
    full_groups = [g for row in assignment for g in _groups(inst.m, row)
                   if len(g) == inst.full_load]
    return _pairs_met_twice([1 << a for a in range(inst.n)], full_groups)


def count_pair_deviations(inst: SrsgInstance, assignment: Sequence,
                          method: str = "structural") -> int:
    """Number of unordered agent pairs with a strict joint deviation.

    "structural" is the pair rule: a pair strictly gains by a joint move iff
    the two agents share an overfull resource in at least two steps (they
    then peel off one at a time, each in a different step).  It holds only
    at equilibria of convex costs, so anything else is a ContractError.
    "bruteforce" asks the induced game about every pair; each search is
    capped by the search budget (`COALSTAB_BUDGET`)."""
    assignment = validate_assignment(inst, assignment)
    if method == "structural":
        if not inst.cost.is_convex:
            raise ContractError("structural pair rule requires a convex cost")
        if not is_nash(inst, assignment):
            raise ContractError("structural pair rule requires an equilibrium "
                                "assignment")
        return _structural_pair_count(inst, assignment)
    if method == "bruteforce":
        game = induced_game(inst)
        profile = assignment_to_profile(inst, assignment)
        limit = games.search_budget()
        return sum(games.deviates(game, profile, pair, games.STRICT, limit)
                   for pair in itertools.combinations(range(inst.n), 2))
    raise InputError("method must be 'structural' or 'bruteforce'")


def expected_pair_deviations(inst: SrsgInstance, form: str = "collision"):
    """Approximate expected number of strictly deviating pairs at a random
    equilibrium (`exact_expected_pair_deviations` is the exact expectation).

    "collision" treats each pair's chance of landing on an overfull shared
    resource as q/m^2 per step, independent across steps, and evaluates the
    resulting two-of-k binomial tail in exact rationals; "exponential_approx"
    is the closed-form Poisson-style approximation with rate q(k-1)/m^2.
    """
    pairs = comb(inst.n, 2)
    if form == "collision":
        return pairs * _two_or_more_of(inst.k, Fraction(inst.q, inst.m ** 2))
    if form == "exponential_approx":
        alpha = inst.q * (inst.k - 1) / inst.m ** 2
        return pairs * (1.0 - (1.0 + alpha) * exp(-alpha))
    raise InputError("form must be 'collision' or 'exponential_approx'")


def _two_or_more_of(k: int, p: Fraction) -> Fraction:
    """Chance of two or more successes in k independent steps of chance p."""
    return 1 - (1 - p) ** k - k * p * (1 - p) ** (k - 1)


def per_step_full_share_probability(inst: SrsgInstance) -> Fraction:
    """Exact chance that a fixed pair shares an overfull resource in a step."""
    c = inst.full_load
    return Fraction(inst.q * c * (c - 1), inst.n * (inst.n - 1))


def exact_expected_pair_deviations(inst: SrsgInstance) -> Fraction:
    """Expectation from the exact per-step sharing probability.

    Each pair deviates iff it shares an overfull resource in two or more of
    the k independent steps; linearity of expectation does the rest.
    """
    return comb(inst.n, 2) * _two_or_more_of(
        inst.k, per_step_full_share_probability(inst))


# ---------------------------------------------------------------------------
# Monte Carlo sampling
# ---------------------------------------------------------------------------

_SEED_STRIDE = 1_000_003  # fixed arithmetic: sample i uses seed*stride + i


def _sample_counts_range(args) -> list:
    inst, seed, start, stop = args
    n, base, full = inst.n, inst.n // inst.m, inst.full_load
    agents = list(range(n))
    bits = [1 << a for a in agents]
    steps = _permutation_steps(n)
    rng = random.Random()

    def full_groups():
        for _ in range(inst.k):
            pool = agents[:]
            for rank, r in enumerate(_deal(inst, rng, pool, steps)):
                end = n - r * base - rank
                yield pool[end - full:end]

    out = []
    for i in range(start, stop):
        rng.seed(seed * _SEED_STRIDE + i)  # the state random.Random(...) has
        out.append(_pairs_met_twice(bits, full_groups()))
    return out


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sample_pair_deviation_counts(inst: SrsgInstance, samples: int, seed: int,
                                 workers: int = 1) -> list:
    """Strict pair-deviation counts over independent random equilibria.

    Sample i is driven by its own derived seed, so the result is a pure
    function of (inst, samples, seed) regardless of how the index range is
    split across worker processes: count i equals
    `count_pair_deviations(inst, sample_random_ne(inst, seed * _SEED_STRIDE + i))`.
    The sampler gets there without building rows: it deals each step with
    `_deal`, as `sample_random_ne` does, cuts only the q overfull chunks
    from the permuted pool and passes them straight to the mask counter
    that `count_pair_deviations` uses.  The sample count and the seed must
    be nonnegative ints (`_check_count`).  The pool starts no more
    processes than it has jobs, nor more than the process has usable CPUs
    (`_usable_cpus`).
    """
    _check_count(samples, "samples")
    _check_count(seed, "seed")
    if not inst.cost.is_convex:
        raise ContractError("random equilibrium sampling requires convex costs")
    workers = min(workers, _usable_cpus())
    if workers <= 1 or samples < 2:
        return _sample_counts_range((inst, seed, 0, samples))
    import multiprocessing

    chunk = (samples + workers - 1) // workers
    jobs = [(inst, seed, start, min(start + chunk, samples))
            for start in range(0, samples, chunk)]
    with multiprocessing.Pool(len(jobs)) as pool:
        parts = pool.map(_sample_counts_range, jobs)
    return [c for part in parts for c in part]


# ---------------------------------------------------------------------------
# Induced finite game
# ---------------------------------------------------------------------------

def assignment_to_profile(inst: SrsgInstance, assignment: Sequence) -> tuple:
    """Each agent's action: its resource in step t is the base-m digit t."""
    rows = validate_assignment(inst, assignment)
    return tuple(sum(row[agent] * inst.m ** t for t, row in enumerate(rows))
                 for agent in range(inst.n))


def _step_costs(costs: Sequence, loads: tuple, r: int) -> list:
    """Pareto-minimal vectors of r members' costs in one step.

    `loads` are the outsiders' loads, `costs[t-1]` the cost at load t.
    Every one of the m^r picks of a resource per member is tried (the
    search budget caps m^(k*r) with k >= 2, so at the default that is at
    most 10^4); a member on resource c pays the cost at c's outsider load
    plus the members there.  A vector another one is at most entrywise
    never helps a coalition, so it is dropped.  The vectors are returned
    negated, ready to be added to slacks.
    """
    return _pareto_max(tuple([-costs[loads[c] + picks.count(c) - 1] for c in picks])
                       for picks in itertools.product(range(len(loads)), repeat=r))


def _pareto_max(vectors) -> list:
    """The entrywise-maximal members of `vectors`, one copy of each.  Copies
    are dropped first; a vector that dominates another has the larger sum,
    so in the pass by descending sum it is seen first."""
    kept = []
    for v in sorted(set(vectors), key=sum, reverse=True):
        if not any(all(a >= b for a, b in zip(w, v)) for w in kept):
            kept.append(v)
    return kept


def induced_game(inst: SrsgInstance) -> games.FiniteGame:
    """The SRSG as a FiniteGame (utilities are negated total costs).

    Action a picks resource r_t = a // m**t % m in step t.  Loads are packed
    ints: the action is one int with a 1 in field t*m + r_t for each step t,
    each field `n.bit_length()` bits wide, so a profile's sum holds every
    step's loads and no field carries (a load is at most n).  `utility`
    sums the profile on every call and reads the agent's k fields of the
    sum.  An action's packed int and field offsets are built the first time
    a call meets it, never as a table of all m^k; an action outside
    range(m^k) is an InputError there.  `utility` keeps no state but the
    encoding dicts, which only ever gain entries.

    Ships an exact `deviation_test` hook, in agreement with the generic scan
    on every input.  A member's cost depends only on its own action and the
    loads, and the outsiders' loads are the profile's loads less the
    members' ints, so the scan's verdict depends only on the profile, the
    multiset of the members' actions and the kind.  The hook memoises its
    answers under the sorted tuple of the members' actions, for the current
    profile and kind only: the memo holds the profile as a tuple, its loads
    (summed once per memo) and the answers, and a query with another
    profile or kind starts a new memo.  A list profile never equals the
    held tuple, so a list changed in place always gets a fresh answer.  So a
    score vector decides each coalition orbit (coalitions equal up to
    relabelling agents with equal actions) once, and no answer outlives the
    query it belongs to.

    On a miss the hook folds the steps one at a time over the members'
    slacks (baseline cost minus cost so far, costs scaled to ints): costs
    add over steps and a step's loads depend only on its own choices.
    Each step subtracts every achievable vector of step costs and keeps the
    slacks that can still end in a deviation, at least 1 (strict) or 0
    (weak) after the last step.  Costs are nondecreasing in the load, so in
    a step every member pays at least the cost at the least outsider load
    plus one.  That reach bound gives one running need: it starts at the
    floor plus every step's least cost, and a member whose baseline falls
    short of it rejects the coalition before any step; each step then
    takes off its own least cost, and a slack below what is left never
    recovers.  Step 0 adds the distinct maximal step-cost vectors to one
    slack vector, so its survivors are already entrywise-maximal; the
    middle steps keep only the entrywise-maximal survivors (`_pareto_max`);
    the last step only asks whether some sum reaches the floor, with some
    entry above 0 for a weak deviation, and stops at the first that does.
    Two step caches live as long as the game: `sorted_loads`, a step's
    ascending outsider loads by its packed fields, and `step_costs`
    (`_step_costs`) on those loads and r, so steps with equal load
    multisets share one table.  A fold adds at most k entries to each.
    """
    values = inst.cost.values
    m, n, k = inst.m, inst.n, inst.k
    action_count = m ** k
    costs = games.scaled(values)
    gains = [0] + [-v for v in values]  # gains[t]: the utility of load t's cost
    width = n.bit_length()
    mask = (1 << width) - 1
    packed, shifts = {}, {}  # action -> its packed int, its k field offsets

    def loads_of(profile):
        """The packed loads of `profile`, encoding each action the sum
        misses."""
        while True:
            try:
                return sum(map(packed.__getitem__, profile))
            except KeyError as missing:
                a = missing.args[0]
            if not (type(a) is int and 0 <= a < action_count):
                raise InputError(f"action {a!r} outside range({action_count})")
            shifts[a] = [width * (t * m + a // m ** t % m) for t in range(k)]
            packed[a] = sum(1 << s for s in shifts[a])

    def utility(agent: int, profile):
        loads = 0
        try:  # a plain loop: faster than sum(map(...)) at these lengths
            for a in profile:
                loads += packed[a]
        except KeyError:
            loads = loads_of(profile)
        u = 0
        for s in shifts[profile[agent]]:
            u += gains[loads >> s & mask]
        return u

    row = width * m  # the bits of one step's m fields
    row_mask = (1 << row) - 1

    @functools.cache
    def sorted_loads(fields: int) -> tuple:
        """The outsider loads packed in one step's `fields`, ascending."""
        return tuple(sorted([fields >> s & mask for s in range(0, row, width)]))

    step_costs = functools.cache(functools.partial(_step_costs, costs))

    def fold(own: tuple, loads: int, kind: str) -> bool:
        """Whether members with the actions `own` deviate at `loads`."""
        outside = loads - sum(map(packed.__getitem__, own))
        r = len(own)
        floor = 1 if kind == games.STRICT else 0
        base = []
        for a in own:
            cost = 0
            for s in shifts[a]:
                cost += costs[(loads >> s & mask) - 1]
            base.append(cost)
        steps = [sorted_loads(outside >> row * t & row_mask) for t in range(k)]
        # the least slack that can still end in a deviation
        need = floor + sum([costs[step[0]] for step in steps])
        if min(base) < need:
            return False
        slacks = [tuple(base)]
        for t, step in enumerate(steps[:-1]):
            vectors = step_costs(step, r)
            need -= costs[step[0]]
            # tuple() of a list, not of a generator, reuses freed tuples of
            # its size; of a generator it allocates anew and memory grows
            sums = (tuple([a + b for a, b in zip(s, v)])
                    for s in slacks for v in vectors)
            slacks = [d for d in sums if min(d) >= need]
            if not slacks:
                return False
            if t:  # base plus distinct maximal vectors is already maximal
                slacks = _pareto_max(slacks)
        for v in step_costs(steps[-1], r):
            for s in slacks:
                d = [a + b for a, b in zip(s, v)]
                if min(d) >= floor and (floor or any(d)):
                    return True
        return False

    # (profile as a tuple, kind, its packed loads, answers by sorted member
    # actions), one snapshot, so a reader never mixes two queries' parts
    memo = (None, None, 0, {})

    def deviation_test(members, profile, kind):
        nonlocal memo
        at, of, loads, answers = memo
        if at != profile or of != kind:  # a list never equals the tuple
            loads = loads_of(profile)
            answers = {}
            memo = (tuple(profile), kind, loads, answers)
        own = tuple(sorted([profile[i] for i in members]))
        answer = answers.get(own)
        if answer is None:
            answer = answers[own] = fold(own, loads, kind)
        return answer

    return games.FiniteGame(n, (action_count,) * n, utility,
                            deviation_test=deviation_test)


# ---------------------------------------------------------------------------
# Exchange-document glue
# ---------------------------------------------------------------------------

def game_document(inst: SrsgInstance, profiles: Optional[dict] = None) -> dict:
    """Exchange document referencing the generator instead of a full table."""
    doc = {
        "format": games.GAME_FORMAT,
        "version": 1,
        "players": inst.n,
        "action_counts": [inst.m ** inst.k] * inst.n,
        "utilities": {
            "kind": "generator",
            "name": "srsg",
            "params": {
                "m": inst.m,
                "n": inst.n,
                "k": inst.k,
                "cost": [games.rational_to_str(v) for v in inst.cost.values],
            },
        },
    }
    if profiles:
        doc["profiles"] = {
            name: list(assignment_to_profile(inst, a))
            for name, a in profiles.items()
        }
    return doc


def resolve_generator(params: dict) -> games.FiniteGame:
    """Generator hook for games.game_from_document: `params` holds the ints
    m, n and k (a bool or a float is not one) and the cost, "linear" (the
    default) or a list of rationals."""
    m, n, k = ((params.get(p) for p in "mnk") if isinstance(params, dict)
               else (None,) * 3)
    if not all(type(x) is int for x in (m, n, k)):
        raise InputError("srsg generator needs int parameters m, n and k")
    cost = params.get("cost", "linear")
    if cost == "linear":
        cost = CostFn.linear(n)
    elif isinstance(cost, list):
        cost = CostFn(tuple(map(games.rational_from_str, cost)))
    else:
        raise InputError("srsg cost must be 'linear' or a list of rationals")
    return induced_game(SrsgInstance(m, n, k, cost))


GENERATOR_RESOLVERS = {"srsg": resolve_generator}

"""Sequential resource-selection games over identical resources.

Agents pick one of m identical resources in each of k independent steps and
pay the load-dependent cost of their choice per step.  With a convex cost
function the pure equilibria are exactly the assignments that are nearly
balanced in every step, and a pair of agents can strictly gain by a joint
move if and only if they share an overfull resource in at least two steps;
that structural rule makes pair counting cheap, while the generic exhaustive
search over the induced finite game stays available as an independent check.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, exp, lcm
from typing import Optional, Sequence

from . import games
from .errors import ContractError, InputError

Assignment = tuple  # k rows of n resource indices in range(m)


@dataclass(frozen=True)
class CostFn:
    """Nondecreasing per-load cost table; values[t-1] is the cost at load t."""

    values: tuple

    def __post_init__(self):
        values = tuple(
            v if isinstance(v, int) else Fraction(v) for v in self.values
        )
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

    def at_load(self, load: int):
        return self.values[load - 1]


@dataclass(frozen=True)
class SrsgInstance:
    m: int  # resources
    n: int  # agents
    k: int  # steps
    cost: CostFn

    def __post_init__(self):
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
            if not (isinstance(r, int) and 0 <= r < inst.m):
                raise InputError(f"resource index {r!r} out of range")
    return rows


def step_loads(inst: SrsgInstance, assignment: Assignment) -> list:
    """loads[t][r] = number of agents on resource r at step t."""
    loads = []
    for row in assignment:
        counts = [0] * inst.m
        for r in row:
            counts[r] += 1
        loads.append(counts)
    return loads


def total_cost(inst: SrsgInstance, assignment: Sequence, agent: int):
    """Sum over steps of the cost of the agent's resource at its load."""
    assignment = validate_assignment(inst, assignment)
    if not 0 <= agent < inst.n:
        raise InputError(f"agent {agent} out of range")
    loads = step_loads(inst, assignment)
    values = inst.cost.values
    return sum(values[loads[t][assignment[t][agent]] - 1] for t in range(inst.k))


def is_nash(inst: SrsgInstance, assignment: Sequence) -> bool:
    """No agent can lower its cost at any single step by switching resources.

    Steps are independent, so per-step optimality of every agent is exactly
    unilateral optimality in the whole game.
    """
    assignment = validate_assignment(inst, assignment)
    loads = step_loads(inst, assignment)
    values = inst.cost.values
    for t in range(inst.k):
        counts = loads[t]
        cheapest_entry = values[min(counts)]  # cost after joining the emptiest
        for agent in range(inst.n):
            own = values[counts[assignment[t][agent]] - 1]
            if own > cheapest_entry:
                return False
    return True


def _nearly_balanced_partition(inst: SrsgInstance) -> tuple:
    """Agents grouped consecutively: the first q resources take one extra."""
    row = [0] * inst.n
    agent = 0
    for resource in range(inst.m):
        size = inst.full_load if resource < inst.q else inst.n // inst.m
        for _ in range(size):
            if agent < inst.n:
                row[agent] = resource
                agent += 1
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
    if 2 * q <= m:
        second = list(first)
        groups = [[] for _ in range(m)]
        for agent, r in enumerate(first):
            groups[r].append(agent)
        for f in range(q):
            moved = groups[f][-1]
            second[moved] = q + f  # targets are distinct underfull resources
        return (first, tuple(second))
    second = [0] * inst.n
    position = 0
    for r in range(m):
        for agent in (a for a in range(inst.n) if first[a] == r):
            second[agent] = position % m
            position += 1
    return (first, tuple(second))


def _permutation(getrandbits, n: int) -> list:
    """`random.Random.sample(range(n), n)` for the generator that owns
    `getrandbits`: the same list, leaving the generator in the same state.

    At k = n `sample` always takes its pool branch: draw j below the pool
    size by rejection on `getrandbits`, take pool[j] and fill its place from
    the pool's end.  Here the taken items collect at the end instead, so
    the pool read backwards is the sample.
    """
    pool = list(range(n))
    for last in range(n - 1, -1, -1):
        bits = (last + 1).bit_length()
        j = getrandbits(bits)
        while j > last:
            j = getrandbits(bits)
        pool[j], pool[last] = pool[last], pool[j]
    pool.reverse()
    return pool


def _deal(inst: SrsgInstance, rng: random.Random) -> list:
    """One step's agents in m chunks, chunk r on resource r.

    A uniform agent permutation is cut into nearly balanced chunks, and a
    uniform choice of resources takes the q larger ones.  That hits every
    nearly balanced row with equal probability (the chunk-internal
    orderings contribute a constant factor).
    """
    order = _permutation(rng.getrandbits, inst.n)
    overfull = set(rng.sample(range(inst.m), inst.q))
    base = inst.n // inst.m
    chunks = []
    start = 0
    for resource in range(inst.m):
        stop = start + base + (resource in overfull)
        chunks.append(order[start:stop])
        start = stop
    return chunks


def _random_balanced_row(inst: SrsgInstance, rng: random.Random) -> tuple:
    """Uniform draw over rows whose load multiset is nearly balanced."""
    row = [0] * inst.n
    for resource, chunk in enumerate(_deal(inst, rng)):
        for agent in chunk:
            row[agent] = resource
    return tuple(row)


def sample_random_ne(inst: SrsgInstance, seed: int) -> Assignment:
    """Independent uniformly random nearly balanced partition per step."""
    if not inst.cost.is_convex:
        raise ContractError("random nearly balanced rows are equilibria only "
                            "for convex costs")
    rng = random.Random(seed)
    return tuple(_random_balanced_row(inst, rng) for _ in range(inst.k))


def pair_share_summary(inst: SrsgInstance, assignment: Assignment,
                       i: int, j: int) -> tuple:
    """Steps at which agents i and j share a resource, tagged full/vacant.

    "full" means the shared resource carries ceil(n/m) agents and the
    instance has a nonzero remainder; in a nearly balanced row those are the
    only loads above the floor.
    """
    assignment = validate_assignment(inst, assignment)
    loads = step_loads(inst, assignment)
    full = inst.full_load
    shared = []
    for t in range(inst.k):
        ri, rj = assignment[t][i], assignment[t][j]
        if ri == rj:
            tag = "full" if (inst.q > 0 and loads[t][ri] == full) else "vacant"
            shared.append((t, tag))
    return tuple(shared)


def _require_structural_scope(inst: SrsgInstance, assignment: Assignment) -> None:
    if not inst.cost.is_convex:
        raise ContractError("structural pair rule requires a convex cost")
    if not is_nash(inst, assignment):
        raise ContractError("structural pair rule requires an equilibrium "
                            "assignment")


def pair_deviates_structural(inst: SrsgInstance, assignment: Sequence,
                             i: int, j: int) -> bool:
    """Pair rule: a strict joint gain exists iff the two agents share an
    overfull resource in at least two steps (they then peel off one at a time,
    each in a different step).  Only valid at equilibria of convex costs."""
    assignment = validate_assignment(inst, assignment)
    _require_structural_scope(inst, assignment)
    shared = pair_share_summary(inst, assignment, i, j)
    return sum(1 for _, tag in shared if tag == "full") >= 2


def _shared_full_pairs(inst: SrsgInstance, steps) -> int:
    """Count pairs in one full group at two or more steps; `steps` holds
    each step's m groups.  Each full group's pairs go into `seen` the first
    time and into `twice` after, so a pair counts once however often it
    meets: k*q*C(full_load, 2) pair lookups at an equilibrium."""
    if inst.q == 0:
        return 0
    full = inst.full_load
    seen, twice = set(), set()
    for groups in steps:
        for group in groups:
            if len(group) == full:
                for pair in itertools.combinations(sorted(group), 2):
                    if pair in seen:
                        twice.add(pair)
                    else:
                        seen.add(pair)
    return len(twice)


def _structural_pair_count(inst: SrsgInstance, assignment: Assignment) -> int:
    """Count pairs sharing an overfull resource in two or more steps."""
    steps = []
    for row in assignment:
        groups = [[] for _ in range(inst.m)]
        for agent, r in enumerate(row):
            groups[r].append(agent)
        steps.append(groups)
    return _shared_full_pairs(inst, steps)


def count_pair_deviations(inst: SrsgInstance, assignment: Sequence,
                          method: str = "structural",
                          budget: Optional[int] = None) -> int:
    """Number of unordered agent pairs with a strict joint deviation."""
    assignment = validate_assignment(inst, assignment)
    if method == "structural":
        _require_structural_scope(inst, assignment)
        return _structural_pair_count(inst, assignment)
    if method == "bruteforce":
        game = induced_game(inst)
        profile = assignment_to_profile(inst, assignment)
        count = 0
        for pair in itertools.combinations(range(inst.n), 2):
            if games.has_deviation(game, profile, pair, games.STRICT, budget):
                count += 1
        return count
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
    rng = random.Random()
    out = []
    for i in range(start, stop):
        rng.seed(seed * _SEED_STRIDE + i)  # the state random.Random(...) has
        out.append(_shared_full_pairs(
            inst, [_deal(inst, rng) for _ in range(inst.k)]))
    return out


def sample_pair_deviation_counts(inst: SrsgInstance, samples: int, seed: int,
                                 workers: int = 1) -> list:
    """Strict pair-deviation counts over independent random equilibria.

    Sample i is driven by its own derived seed, so the result is a pure
    function of (inst, samples, seed) regardless of how the index range is
    split across worker processes: count i equals
    `count_pair_deviations(inst, sample_random_ne(inst, seed * _SEED_STRIDE + i))`.
    The sampler gets there without building rows: it draws each step's
    permutation with its own copy of `random.Random.sample`, deals it into
    chunks (`_deal`, as `sample_random_ne` does) and passes the chunks
    straight to the pair counter that `count_pair_deviations` uses.  The
    pool starts no more processes than it has jobs.
    """
    if samples < 0:
        raise InputError("samples must be nonnegative")
    if not inst.cost.is_convex:
        raise ContractError("random equilibrium sampling requires convex costs")
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

def _decode_table(inst: SrsgInstance) -> list:
    """Action index -> per-step resource tuple (mixed-radix, step 0 lowest)."""
    table = []
    for action in range(inst.m ** inst.k):
        a, row = action, []
        for _ in range(inst.k):
            row.append(a % inst.m)
            a //= inst.m
        table.append(tuple(row))
    return table


def assignment_to_profile(inst: SrsgInstance, assignment: Sequence) -> tuple:
    assignment = validate_assignment(inst, assignment)
    profile = []
    for agent in range(inst.n):
        action = 0
        for t in reversed(range(inst.k)):
            action = action * inst.m + assignment[t][agent]
        profile.append(action)
    return tuple(profile)


def profile_to_assignment(inst: SrsgInstance, profile: Sequence) -> Assignment:
    decode = _decode_table(inst)
    rows = [[0] * inst.n for _ in range(inst.k)]
    for agent, action in enumerate(profile):
        for t, r in enumerate(decode[action]):
            rows[t][agent] = r
    return tuple(tuple(row) for row in rows)


def _step_costs(costs: Sequence, loads: tuple, r: int) -> list:
    """Pareto-minimal vectors of r members' costs in one step.

    `loads` are the outsiders' loads sorted ascending, `costs[t-1]` the
    cost at load t.  Resources with equal outsider load are interchangeable,
    so they are filled in order: a member may take such a resource only when
    an earlier member already took the one before it.  A vector another one
    is at most entrywise never helps a coalition, so it is dropped.  The
    vectors are returned negated, ready to be added to slacks.
    """
    m = len(loads)
    counts = [0] * m  # members on each resource
    picks = [0] * r
    found = set()

    def place(j):
        if j == r:
            found.add(tuple([costs[loads[c] + counts[c] - 1] for c in picks]))
            return
        for c in range(m):
            if c and loads[c] == loads[c - 1] and not counts[c - 1]:
                continue
            counts[c] += 1
            picks[j] = c
            place(j + 1)
            counts[c] -= 1

    place(0)
    return _pareto_max([tuple([-x for x in v]) for v in found])


def _pareto_max(vectors) -> list:
    """The entrywise-maximal members of `vectors`, one copy of each.  A
    vector that dominates another has the larger sum, so it is seen first."""
    kept = []
    for v in sorted(vectors, key=sum, reverse=True):
        if not any(all(a >= b for a, b in zip(w, v)) for w in kept):
            kept.append(v)
    return kept


def induced_game(inst: SrsgInstance) -> games.FiniteGame:
    """The SRSG as a FiniteGame (utilities are negated total costs).

    Ships an exact `deviation_test` hook, in agreement with the generic scan
    on every input.  A member's cost is a sum over steps, and a step's loads
    depend only on that step's choices, so the hook folds the steps one at a
    time over the members' slacks (baseline cost minus cost so far, in the
    cost table scaled to ints).  Each step subtracts every achievable vector
    of step costs (`_step_costs`, memoised on the sorted outsider loads and
    the coalition size) and keeps only the entrywise-maximal slacks that can
    still end in a deviation: costs are nonnegative, so a slack below 0
    (weak) or at most 0 (strict) never recovers.  The coalition deviates
    when a slack vector survives the last step, with some entry above 0 for
    a weak deviation.  The memo and the profile's loads are kept for one
    profile at a time and dropped when a call brings another.
    """
    decode = _decode_table(inst)
    values = inst.cost.values
    m, n, k = inst.m, inst.n, inst.k
    action_count = m ** k
    scale = lcm(*(Fraction(v).denominator for v in values))
    costs = [int(v * scale) for v in values]

    def loads_of(profile):
        loads = [[0] * m for _ in range(k)]
        for action in profile:
            for t, r in enumerate(decode[action]):
                loads[t][r] += 1
        return loads

    def utility(agent: int, profile):
        loads = loads_of(profile)
        own = decode[profile[agent]]
        return -sum(values[loads[t][own[t]] - 1] for t in range(k))

    memo = {}  # (sorted outsider loads, coalition size) -> step-cost vectors
    current = {}  # the profile the memo belongs to, its loads and costs

    def deviation_test(members, profile, kind):
        if current.get("profile") != profile:
            memo.clear()
            loads = loads_of(profile)
            current.update(profile=profile, loads=loads, base=[
                sum(costs[loads[t][r] - 1] for t, r in enumerate(decode[a]))
                for a in profile])
        loads, base = current["loads"], current["base"]
        r = len(members)
        floor = 1 if kind == games.STRICT else 0
        slacks = [tuple(base[i] for i in members)]
        for t in range(k):
            outside = list(loads[t])
            for i in members:
                outside[decode[profile[i]][t]] -= 1
            key = (tuple(sorted(outside)), r)
            if key not in memo:
                memo[key] = _step_costs(costs, key[0], r)
            # tuple() of a list, not of a generator, reuses freed tuples of
            # its size; of a generator it allocates anew and memory grows
            sums = (tuple([a + b for a, b in zip(s, v)])
                    for s in slacks for v in memo[key])
            slacks = _pareto_max([d for d in sums if min(d) >= floor])
            if not slacks:
                return False
        return floor == 1 or any(map(any, slacks))

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


def resolve_generator(params: dict):
    """Generator hook for games.game_from_document."""
    cost_param = params.get("cost", "linear")
    n = int(params["n"])
    if cost_param == "linear":
        cost = CostFn.linear(n)
    else:
        cost = CostFn(tuple(games.rational_from_str(v) for v in cost_param))
    inst = SrsgInstance(int(params["m"]), n, int(params["k"]), cost)
    return induced_game(inst), {}


GENERATOR_RESOLVERS = {"srsg": resolve_generator}

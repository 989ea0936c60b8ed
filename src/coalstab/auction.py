"""Position auctions: second-price-per-slot outcomes and collusion counts.

Slots carry strictly decreasing click rates, bidders strictly decreasing
per-click values.  Two benchmark outcomes are covered: the truthful
welfare-payment auction ("VCG") and the rank-by-bid next-price auction
("GSP") at the two boundary envy-free equilibria, the lower (LE, revenue
equivalent to the truthful auction) and upper (UE) equilibria.

Bidder and slot positions are 1-based ranks throughout the public API, which
keeps the payment and deviation formulas auditable; storage is 0-based.  All
arithmetic is exact, and a deviation exists only on a strict inequality.
"""

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Optional, Sequence

from .errors import ContractError, InputError, TieError
from .games import WEAK, check_budget, check_kind, first_deviation, rebids

LE = "le"
UE = "ue"
_EQUILIBRIA = (LE, UE)


def _as_fraction_tuple(values) -> tuple:
    return tuple(Fraction(v) for v in values)


def _strictly_decreasing(values) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


@dataclass(frozen=True)
class AuctionInstance:
    """s slots with CTRs `ctrs`, n bidders with per-click values `values`.

    Both vectors are strictly decreasing and positive; values are pairwise
    distinct by construction.  n may be smaller than s (the randomized-reserve
    analysis needs surplus slots); operations that require competition for
    slots check n > s themselves.
    """

    slot_count: int
    values: tuple
    ctrs: tuple

    def __post_init__(self):
        values = _as_fraction_tuple(self.values)
        ctrs = _as_fraction_tuple(self.ctrs)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "ctrs", ctrs)
        if self.slot_count < 1:
            raise InputError("need at least one slot")
        if len(ctrs) != self.slot_count:
            raise InputError("one CTR per slot required")
        if len(values) < 2:
            raise InputError("need at least two bidders")
        if ctrs[-1] <= 0 or not _strictly_decreasing(ctrs):
            raise InputError("CTRs must be positive and strictly decreasing")
        if values[-1] <= 0 or not _strictly_decreasing(values):
            raise InputError("values must be positive, strictly decreasing "
                             "and pairwise distinct")

    @property
    def s(self) -> int:
        return self.slot_count

    @property
    def n(self) -> int:
        return len(self.values)

    def value(self, rank: int) -> Fraction:
        """v_rank, with v_rank = 0 beyond the last bidder."""
        return self.values[rank - 1] if 1 <= rank <= self.n else Fraction(0)

    def ctr(self, slot: int) -> Fraction:
        """x_slot, with x_slot = 0 beyond the last slot."""
        return self.ctrs[slot - 1] if 1 <= slot <= self.s else Fraction(0)

    def require_competition(self) -> None:
        if self.n <= self.s:
            raise InputError("this operation needs more bidders than slots")


def bid_at(bids: Sequence, rank: int) -> Fraction:
    """rank-th entry of a rank-sorted bid vector, 0 beyond the end."""
    return Fraction(bids[rank - 1]) if 1 <= rank <= len(bids) else Fraction(0)


# ---------------------------------------------------------------------------
# Truthful welfare payments
# ---------------------------------------------------------------------------

def welfare_prices(ctrs: Sequence, ranked_values: Sequence) -> tuple:
    """Per-click welfare price of each of the min(s, len(ranked_values)) top
    ranks, s = len(ctrs): the CTR-difference-weighted sum of the values
    ranked below, p_i = sum_{j=i+1..s+1} (x_{j-1}-x_j) v_j / x_i, with
    x_{s+1} = 0 and v_j = 0 past the end of `ranked_values`.  One suffix
    sum, O(s); every truthful price in the package is this one."""
    s = len(ctrs)
    winners = min(s, len(ranked_values))
    x = list(ctrs) + [0]
    v = list(ranked_values[:s + 1]) + [0] * (s + 1 - len(ranked_values))
    tail = Fraction(0)  # sum_{j=i+1..s+1} (x_{j-1}-x_j) v_j as i descends
    prices = []
    for i in range(s, 0, -1):
        tail += (x[i - 1] - x[i]) * v[i]
        if i <= winners:
            prices.append(tail / x[i - 1])
    return tuple(reversed(prices))


def vcg_payments(inst: AuctionInstance, reports: Optional[Sequence] = None) -> tuple:
    """Per-click welfare price of each winner (`welfare_prices`).  `reports`
    (rank-sorted) replace the true values when given."""
    vals = inst.values if reports is None else _as_fraction_tuple(reports)
    return welfare_prices(inst.ctrs, vals)


def vcg_payments_recursive(inst: AuctionInstance) -> tuple:
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


# ---------------------------------------------------------------------------
# GSP and its boundary envy-free equilibria
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GspOutcome:
    """Allocation, per-click prices and utilities of one bid profile.

    `ranking[j-1]` is the 0-based index of the bidder holding rank j;
    `payments[j-1]` is the per-click price of slot j; `utilities[i]` is the
    exact utility of bidder i (0 for losers).
    """

    ranking: tuple
    payments: tuple
    utilities: tuple
    revenue: Fraction


def gsp_outcome(inst: AuctionInstance, bids: Sequence) -> GspOutcome:
    """Rank by bid, charge every slot the next bid down.

    Tied bids are rejected: the analysis assumes generic profiles, and no
    deterministic tie-break is neutral here.
    """
    bids = _as_fraction_tuple(bids)
    if len(bids) != inst.n:
        raise InputError("one bid per bidder required")
    if len(set(bids)) != len(bids):
        raise TieError("tied bids cannot be ranked")
    ranking = tuple(sorted(range(inst.n), key=lambda i: bids[i], reverse=True))
    payments = []
    for slot in range(1, min(inst.s, inst.n) + 1):
        nxt = bids[ranking[slot]] if slot < inst.n else Fraction(0)
        payments.append(nxt)
    utilities = [Fraction(0)] * inst.n
    revenue = Fraction(0)
    for slot, bidder in enumerate(ranking[:len(payments)], start=1):
        utilities[bidder] = (inst.values[bidder] - payments[slot - 1]) * inst.ctr(slot)
        revenue += payments[slot - 1] * inst.ctr(slot)
    return GspOutcome(ranking, tuple(payments), tuple(utilities), revenue)


def _boundary_bids(inst: AuctionInstance, upper: bool) -> tuple:
    """Shared construction of the boundary envy-free bid vectors.

    Ranks 2..s+1 follow the defining recursion; rank 1 bids its value (any
    bid above rank 2 is equilibrium-equivalent), falling back to twice the
    rank-2 bid in the single-slot upper corner where the recursion reaches
    v_1 itself.  Bidders below rank s+1 bid their values, rescaled if that
    would break strict order (it cannot for these two profiles, but the
    guard keeps the constructor total).
    """
    inst.require_competition()
    s = inst.s
    # b_i x_{i-1} is the welfare-price sum of rank i-1; UE attaches v_{j-1}
    # to rank j, so the values shift down one rank
    values = inst.values[:1] + inst.values if upper else inst.values
    tail = welfare_prices(inst.ctrs, values)  # b_2 .. b_{s+1}
    top = inst.value(1)
    if top <= tail[0]:
        top = 2 * tail[0]
    out = [top, *tail]
    if inst.n > s + 1:
        scale = Fraction(1)
        if inst.value(s + 2) >= tail[-1]:
            scale = tail[-1] / (2 * inst.value(s + 2))
        out.extend(scale * inst.value(i) for i in range(s + 2, inst.n + 1))
    if not _strictly_decreasing(out):
        raise AssertionError("boundary bid construction lost strict order")
    return tuple(out)


def le_bids(inst: AuctionInstance) -> tuple:
    """Lower boundary equilibrium: b_i x_{i-1} = sum_{j=i..s+1} v_j (x_{j-1}-x_j)."""
    return _boundary_bids(inst, upper=False)


def ue_bids(inst: AuctionInstance) -> tuple:
    """Upper boundary equilibrium: b_i x_{i-1} = sum_{j=i..s+1} v_{j-1} (x_{j-1}-x_j)."""
    return _boundary_bids(inst, upper=True)


def equilibrium_bids(inst: AuctionInstance, eq: str) -> tuple:
    if eq not in _EQUILIBRIA:
        raise InputError(f"equilibrium must be one of {_EQUILIBRIA}")
    return le_bids(inst) if eq == LE else ue_bids(inst)


def verify_symmetric_ne(inst: AuctionInstance, bids: Sequence) -> bool:
    """Envy-freeness: no bidder prefers any slot at that slot's current price,
    and no loser would profit from any slot."""
    outcome = gsp_outcome(inst, bids)
    slots = len(outcome.payments)
    for position, bidder in enumerate(outcome.ranking, start=1):
        value = inst.values[bidder]
        current = outcome.utilities[bidder]
        for slot in range(1, slots + 1):
            if (value - outcome.payments[slot - 1]) * inst.ctr(slot) > current:
                return False
    return True


# ---------------------------------------------------------------------------
# Pair deviations from the boundary equilibria
#
# The only joint move available to a pair (k, j), k < j <= s+1, is k taking
# slot j-1 while j shades her bid down to the bid below her; j's utility is
# untouched and k trades slot k's margin for slot j-1's.  Whether that trade
# helps is a closed-form comparison of two CTR-difference-weighted value
# sums.  `pair_gain` evaluates it pair by pair in `Fraction`s and is the
# oracle; the counters below run on scaled ints and need one binary search
# per target rank j (see `_deviation_thresholds`).
# ---------------------------------------------------------------------------

def _check_pair(inst: AuctionInstance, k: int, j: int) -> None:
    if not (1 <= k < j <= inst.s + 1):
        raise InputError(f"pair ({k},{j}) out of range for s={inst.s}")


def _value_for(inst: AuctionInstance, eq: str, rank: int) -> Fraction:
    """The value the boundary recursion attaches to rank `rank`."""
    return inst.value(rank - 1) if eq == UE else inst.value(rank)


def pair_gain(inst: AuctionInstance, eq: str, k: int, j: int) -> Fraction:
    """Exact utility change of agent k when the pair (k, j) plays its one
    available joint move (j shades to the bid below, k takes slot j-1).

    Positive means the pair deviates.  Equals simulation exactly; the j = s+1
    case treats the shaded bid as escapable to zero, which is exact when no
    bidder holds rank s+2.
    """
    if eq not in _EQUILIBRIA:
        raise InputError(f"equilibrium must be one of {_EQUILIBRIA}")
    _check_pair(inst, k, j)
    loss = Fraction(0)  # forfeited margin over slots k..j-2
    for t in range(k + 1, j):
        loss += (inst.ctr(t - 1) - inst.ctr(t)) * (inst.value(k) - _value_for(inst, eq, t))
    a = inst.ctr(j - 1) - inst.ctr(j)
    tail = Fraction(0)
    if j <= inst.s:
        acc = Fraction(0)
        for i in range(j + 1, inst.s + 2):
            acc += (inst.ctr(i - 1) - inst.ctr(i)) * _value_for(inst, eq, i)
        tail = acc / inst.ctr(j)
    gain = a * (_value_for(inst, eq, j) - tail) - loss
    return gain


def pair_deviates(inst: AuctionInstance, eq: str, k: int, j: int) -> bool:
    """Neighbour pairs always have a (weak) deviation; distant pairs deviate
    exactly when the forfeited margin is strictly outweighed."""
    if eq not in _EQUILIBRIA:
        raise InputError(f"equilibrium must be one of {_EQUILIBRIA}")
    _check_pair(inst, k, j)
    return j == k + 1 or pair_gain(inst, eq, k, j) > 0


def simulate_pair_deviation(inst: AuctionInstance, eq: str, k: int, j: int,
                            eps=0) -> Fraction:
    """Direct route to agent k's post-move utility: build the deviated bid
    vector's outcome by construction (k holds slot j-1 and pays what j bids).
    Returns u'(k)."""
    bids = equilibrium_bids(inst, eq)
    _check_pair(inst, k, j)
    new_price = bid_at(bids, j + 1) + Fraction(eps)
    return (inst.value(k) - new_price) * inst.ctr(j - 1)


def _scaled(values) -> list:
    """`Fraction`s times the lcm of their denominators: ints in the same
    ratios."""
    scale = lcm(*(f.denominator for f in values))
    return [f.numerator * (scale // f.denominator) for f in values]


def _deviation_thresholds(inst: AuctionInstance, eq: str) -> list:
    """lo[j] for j = 2..s+1: the pair (k, j) deviates exactly when
    lo[j] <= k <= j-1 (lo[j] = j-1 when only the neighbour does).

    `pair_gain` > 0 reads loss(k) < a_j (v'_j - T_j / x_j), where v' is the
    value the boundary recursion attaches to a rank, W[t] the prefix sum
    sum_{u=2..t} (x_{u-1}-x_u) v'_u, loss(k) = v_k (x_k - x_{j-1}) -
    (W[j-1] - W[k]) the margin k forfeits, a_j = x_{j-1} - x_j and
    T_j = W[s+1] - W[j].  CTRs and values are scaled once to ints (each by
    the lcm of its denominators; both sides of the test scale alike) and
    the test is multiplied by x_j > 0 (j <= s) to clear the division.

    For fixed j, loss(k) never increases with k:
    loss(k) - loss(k+1) = (v_k - v_{k+1}) (x_k - x_{j-1}) at LE and
    (v_k - v_{k+1}) (x_{k+1} - x_{j-1}) at UE, both >= 0 for k <= j-2.  So
    the deviating k form a suffix of 1..j-2 and one binary search per j finds
    its start: O(s log s) int operations in all.  Every LE/UE counter reads
    these thresholds, so each needs a loser (n > s), as the equilibrium
    bids do.
    """
    if eq not in _EQUILIBRIA:
        raise InputError(f"equilibrium must be one of {_EQUILIBRIA}")
    inst.require_competition()
    s = inst.s
    x = _scaled([inst.ctr(i) for i in range(0, s + 2)])  # x[0] unused
    v = _scaled([inst.value(i) for i in range(0, s + 2)])  # v[0] = 0 unused
    vr = [0] + v[:-1] if eq == UE else v  # vr[t] = value attached to rank t
    W = [0] * (s + 2)
    for u in range(2, s + 2):
        W[u] = W[u - 1] + (x[u - 1] - x[u]) * vr[u]
    lo = [0, 0]
    for j in range(2, s + 2):
        m = x[j] if j <= s else 1
        bound = (x[j - 1] - x[j]) * (vr[j] * m - (W[s + 1] - W[j]))
        first, last = 1, j - 1  # k = j-1, the neighbour, always deviates
        while first < last:
            k = (first + last) // 2
            if (v[k] * (x[k] - x[j - 1]) - (W[j - 1] - W[k])) * m < bound:
                last = k
            else:
                first = k + 1
        lo.append(first)
    return lo


def deviating_pairs(inst: AuctionInstance, eq: str) -> list:
    """All pairs (k, j), 1 <= k < j <= s+1, with a joint deviation, sorted.

    Every neighbour pair (k, k+1) deviates; a distant pair deviates exactly
    when `pair_gain` is positive.  Exact int arithmetic, one threshold per
    target rank: O(s log s) plus the length of the list.
    """
    lo = _deviation_thresholds(inst, eq)
    targets = [[] for _ in range(inst.s + 1)]
    for j in range(2, inst.s + 2):
        for k in range(lo[j], j):
            targets[k].append(j)
    return [(k, j) for k in range(1, inst.s + 1) for j in targets[k]]


def count_pair_deviations(inst: AuctionInstance, eq: str) -> int:
    """len(deviating_pairs(inst, eq)) without building the list."""
    lo = _deviation_thresholds(inst, eq)
    return sum(j - lo[j] for j in range(2, inst.s + 2))


# ---------------------------------------------------------------------------
# Coalitions worth counting
#
# Only coalitions made of winners, possibly padded by the first loser and the
# block of losers directly after her, can contribute anything to a joint
# move; everything else contains permanently idle members.
# ---------------------------------------------------------------------------

def _check_ranks(members: Sequence, n: int) -> tuple:
    """`members` as a tuple; InputError unless they are strictly increasing
    ranks in 1..n."""
    members = tuple(members)
    if not members or list(members) != sorted(set(members)):
        raise InputError("coalition must be a strictly increasing rank tuple")
    if members[0] < 1 or members[-1] > n:
        raise InputError("rank out of range")
    return members


def is_potential_coalition(members: Sequence, s: int, n: int) -> bool:
    """Winners only, or winners plus the consecutive loser block s+1..s+t."""
    members = _check_ranks(members, n)
    winners = [r for r in members if r <= s]
    losers = [r for r in members if r > s]
    if not winners:
        return False
    if not losers:
        return True
    return losers == list(range(s + 1, s + 1 + len(losers)))


def potential_count(s: int, r: int) -> int:
    """M_r = sum_{t=1..r} C(s, t): winner subsets padded with loser blocks."""
    if r < 1:
        raise InputError("coalition size must be positive")
    return sum(comb(s, t) for t in range(1, r + 1))


def iter_potential_coalitions(s: int, n: int, r: int):
    """Potential coalitions of size r as rank tuples, winners-only first."""
    for winners in itertools.combinations(range(1, s + 1), r):
        yield winners
    for t in range(r - 1, 0, -1):
        block = tuple(range(s + 1, s + 1 + (r - t)))
        if block and block[-1] > n:
            continue
        for winners in itertools.combinations(range(1, s + 1), t):
            yield winners + block


def vcg_coalition_deviation(inst: AuctionInstance, members: Sequence) -> tuple:
    """Construct the canonical joint misreport for a potential coalition under
    the truthful auction: every member shades to the midpoint of its own value
    gap.  Verifies that the allocation is unchanged, the cheapest member is
    exactly unharmed and every other winning member strictly gains; returns
    the full report vector."""
    members = tuple(members)
    if not is_potential_coalition(members, inst.s, inst.n):
        raise ContractError("construction applies to potential coalitions only")
    reports = list(inst.values)
    for rank in members:
        below = inst.value(rank + 1)
        reports[rank - 1] = (inst.value(rank) + below) / 2
    if not _strictly_decreasing(reports):
        raise AssertionError("midpoint shading must preserve the ranking")
    before = vcg_payments(inst)
    after = vcg_payments(inst, reports)
    indifferent = max(members)  # values decrease with rank
    for rank in members:
        if rank > inst.s:
            continue  # losers stay at zero utility either way
        gain = (before[rank - 1] - after[rank - 1]) * inst.ctr(rank)
        if rank == indifferent:
            if gain != 0:
                raise AssertionError("cheapest member must be exactly unharmed")
        elif gain <= 0:
            raise AssertionError("every other winning member must strictly gain")
    return tuple(reports)


def count_vcg_coalition_deviations(inst: AuctionInstance, r: int) -> int:
    """Number of size-r potential coalitions whose canonical misreport
    verifies as a weak deviation."""
    count = 0
    for members in iter_potential_coalitions(inst.s, inst.n, r):
        vcg_coalition_deviation(inst, members)  # raises if not a deviation
        count += 1
    return count


def coalition_deviates(inst: AuctionInstance, eq: str, members: Sequence) -> bool:
    """A coalition moves exactly when some pair inside it moves: the cheapest
    member is always indifferent and any extra member can free-ride, so joint
    gains reduce to pair gains."""
    if eq not in _EQUILIBRIA:
        raise InputError(f"equilibrium must be one of {_EQUILIBRIA}")
    members = tuple(members)
    if not is_potential_coalition(members, inst.s, inst.n):
        raise ContractError("only potential coalitions are counted")
    eligible = [r for r in members if r <= inst.s + 1]
    return any(pair_deviates(inst, eq, k, j)
               for k, j in itertools.combinations(eligible, 2))


def count_coalition_deviations(inst: AuctionInstance, eq: str, r: int) -> int:
    """Number of size-r potential coalitions containing a deviating pair."""
    lo = _deviation_thresholds(inst, eq)
    count = 0
    for members in iter_potential_coalitions(inst.s, inst.n, r):
        eligible = [rank for rank in members if rank <= inst.s + 1]
        if any(k >= lo[j] for k, j in itertools.combinations(eligible, 2)):
            count += 1
    return count


# ---------------------------------------------------------------------------
# Exhaustive discretized joint-bid search (validation oracle)
# ---------------------------------------------------------------------------

def bid_grid(inst: AuctionInstance, bids: Sequence, refine: int = 4) -> tuple:
    """Candidate bids: the profile's own bids plus 2*refine - 1 evenly spaced
    interior points of every gap, including a gap below the lowest bid and
    one above the highest.

    The grid is a sample, not a proof.  Allocations change only at the
    bids, but a member's utility also crosses its starting level where its
    price meets a threshold set by values and CTRs, which can fall anywhere
    inside a gap.  A deviation region can therefore lie strictly between
    two grid points: at s=2, values (108, 73, 43), CTRs (62, 28) and LE,
    the pair (1, 3) deviates only if bidder 3 bids below 1/2, and the
    lowest point at refine 4 is 43/8.  A witness found on the grid is a real
    deviation; finding none does not rule one out."""
    if refine < 1:
        raise InputError("refine must be at least 1")
    anchors = sorted({Fraction(b) for b in bids})
    lo = [Fraction(0)] + anchors
    hi = anchors + [2 * anchors[-1]]
    points = set(anchors)
    steps = 2 * refine
    for a, b in zip(lo, hi):
        gap = b - a
        for t in range(1, steps):
            points.add(a + gap * t / steps)
    return tuple(sorted(points))


def untied_joints(joints, profile: Sequence, positions: Sequence):
    """The joint rebids whose entries tie neither each other nor an
    outsider's entry of `profile` (generic-profile assumption)."""
    member_set = set(positions)
    others = {b for i, b in enumerate(profile) if i not in member_set}
    for joint in joints:
        if len(set(joint)) == len(joint) and others.isdisjoint(joint):
            yield joint


def exhaustive_bid_search(inst: AuctionInstance, bids: Sequence,
                          members: Sequence, kind: str = WEAK,
                          refine: int = 4):
    """Scan all grid rebids of the coalition for a joint deviation, judged by
    exact GSP utilities against the starting profile.  `bids` holds one
    nonnegative bid per bidder (bidder i has value values[i-1]); `members`
    are strictly increasing bidder numbers in 1..n.  Tied candidate profiles
    are skipped (generic-profile assumption).  Returns the first witnessing
    bid vector, in `itertools.product` order over `bid_grid`, or None;
    raises BudgetExceededError up front when the grid^r joint rebids
    (r = |members|) exceed the search budget.

    The scan runs on ints.  The grid, the bids and the values are scaled
    once by the lcm D of their denominators and the CTRs by the lcm X of
    theirs, so every utility becomes an int D*X times the true one and
    every comparison keeps its outcome.  Outsiders never rebid, so one
    bisection over their sorted bids gives, for each grid point, the number
    of outsiders above it and the highest outsider bid below it (0 if
    none).  A member bidding c then holds rank 1 + (outsiders above c) +
    (members above c) and pays the larger of that outsider bid and the
    highest member bid below c; past slot s its utility is 0.  Each member
    utility is O(r) int work, computed only when `first_deviation` asks
    for it, so a candidate dropped at its first failing member costs one
    member's utility, and the n - r outsiders are never touched.  A witness
    is re-judged once through `gsp_outcome`, the `Fraction` route."""
    check_kind(kind)
    bids = _as_fraction_tuple(bids)
    indices = [rank - 1 for rank in _check_ranks(members, inst.n)]
    if min(bids, default=0) < 0:
        raise InputError("bids must be nonnegative")
    base = gsp_outcome(inst, bids).utilities
    grid = bid_grid(inst, bids, refine)
    check_budget(len(grid) ** len(indices))
    d = lcm(*(f.denominator for f in grid + bids + inst.values))
    xd = lcm(*(f.denominator for f in inst.ctrs))
    x = [int(f * xd) for f in inst.ctrs]
    points = {int(p * d): p for p in grid}
    work = [int(b * d) for b in bids]
    outsiders = sorted(b for i, b in enumerate(work) if i not in indices)
    above, below = {}, {}
    for c in points:
        k = bisect_left(outsiders, c)
        above[c] = len(outsiders) - bisect_right(outsiders, c)
        below[c] = outsiders[k - 1] if k else 0
    values = [int(inst.values[i] * d) for i in indices]
    s = inst.s

    def utility(j, joint):
        c = joint[j]
        rank, price = above[c], below[c]  # rank counted from 0
        for other in joint:
            if other > c:
                rank += 1
            elif price < other < c:
                price = other
        return (values[j] - price) * x[rank] if rank < s else 0

    joints = untied_joints(itertools.product(points, repeat=len(indices)),
                           work, indices)
    found = first_deviation(joints, range(len(indices)),
                            [int(base[i] * d * xd) for i in indices], utility, kind)
    if found is None:
        return None
    witness = next(rebids(bids, indices, [[points[c] for c in found]]))
    moved = gsp_outcome(inst, witness).utilities
    if first_deviation([witness], indices, [base[i] for i in indices],
                       lambda i, _: moved[i], kind) is None:
        raise AssertionError(f"integer scan witness {witness} fails the "
                             "exact GSP check")
    return witness


# ---------------------------------------------------------------------------
# Value / CTR shape families
# ---------------------------------------------------------------------------

SHAPE_KINDS = ("linear", "convex", "concave", "beta_convex", "beta_concave")


@dataclass(frozen=True)
class ShapeSpec:
    """A named decreasing-vector family.

    beta_convex: consecutive drops shrink by exactly `beta` per step (rapidly
    flattening tail); beta_concave: drops grow by exactly `beta` (late cliff),
    offset high enough that late values dwarf early differences.  `high`
    rescales the vector when given.
    """

    kind: str
    length: int
    beta: Optional[Fraction] = None
    high: Optional[Fraction] = None
    low: Optional[Fraction] = None

    def __post_init__(self):
        if self.kind not in SHAPE_KINDS:
            raise InputError(f"unknown shape kind {self.kind!r}")
        if self.length < 2:
            raise InputError("shapes need at least two entries")
        for name in ("beta", "high", "low"):
            raw = getattr(self, name)
            if raw is not None:
                object.__setattr__(self, name, Fraction(raw))
        if self.kind.startswith("beta_"):
            if self.beta is None or self.beta <= 1:
                raise InputError("beta shapes need beta > 1")
        if self.high is not None and self.high <= 0:
            raise InputError("high endpoint must be positive")


def make_shape(spec: ShapeSpec) -> tuple:
    """Generate a strictly decreasing positive vector satisfying the family's
    defining inequalities exactly."""
    L = spec.length
    if spec.kind == "linear":
        high = spec.high if spec.high is not None else Fraction(L)
        low = spec.low if spec.low is not None else high / L
        if low <= 0 or low >= high:
            raise InputError("linear shape needs 0 < low < high")
        step = (high - low) / (L - 1)
        return tuple(high - step * i for i in range(L))
    if spec.low is not None:
        raise InputError("only linear shapes take a low endpoint")
    if spec.kind == "convex":
        # harmonic-style drops: d_i = 1/(i+1), strictly shrinking
        vec = [Fraction(0)] * L
        vec[L - 1] = Fraction(1)
        for i in range(L - 2, -1, -1):
            vec[i] = vec[i + 1] + Fraction(1, i + 2)
    elif spec.kind == "concave":
        vec = [Fraction(0)] * L
        vec[L - 1] = Fraction(L)
        for i in range(L - 2, -1, -1):
            vec[i] = vec[i + 1] + Fraction(1, L - i)  # drops grow toward the end
    elif spec.kind == "beta_convex":
        beta = spec.beta
        vec = [Fraction(0)] * L
        vec[L - 1] = Fraction(1)
        drop = Fraction(1)
        for i in range(L - 2, -1, -1):
            vec[i] = vec[i + 1] + drop
            drop *= beta
    else:  # beta_concave
        beta = spec.beta
        tail = beta ** L  # keeps late values far above every early difference
        vec = [Fraction(0)] * L
        vec[L - 1] = tail
        drop = beta ** (L - 2)
        for i in range(L - 2, -1, -1):
            vec[i] = vec[i + 1] + drop
            drop /= beta
    if spec.high is not None:
        scale = spec.high / vec[0]
        vec = [scale * v for v in vec]
    if not (_strictly_decreasing(vec) and vec[-1] > 0):
        raise InputError("shape parameters produce an invalid vector")
    return tuple(vec)


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
    vec = _as_fraction_tuple(vector)
    if len(vec) < 2:
        raise InputError("need at least two entries to classify")
    if vec[-1] <= 0 or not _strictly_decreasing(vec):
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


def make_instance(s: int, value_spec: ShapeSpec, ctr_spec: ShapeSpec,
                  n: Optional[int] = None) -> AuctionInstance:
    """Instance with shape-generated values (length n, default 2s) and CTRs
    (length s)."""
    if n is None:
        n = 2 * s
    values = make_shape(ShapeSpec(value_spec.kind, n, value_spec.beta,
                                  value_spec.high, value_spec.low))
    ctrs = make_shape(ShapeSpec(ctr_spec.kind, s, ctr_spec.beta,
                                ctr_spec.high, ctr_spec.low))
    return AuctionInstance(s, values, ctrs)


# ---------------------------------------------------------------------------
# Reserve-price instability witness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReserveWitness:
    bidder_rank: int
    case: str  # "raise": value above the reserve but bid below; "lower": converse
    value: Fraction
    bid: Fraction


def gsp_reserve_witness(inst: AuctionInstance, bids: Sequence, c) -> Optional[ReserveWitness]:
    """First bidder whose (bid, value) pair straddles the reserve c, i.e. who
    would rebid once the reserve binds; None when c separates no pair."""
    c = Fraction(c)
    bids = _as_fraction_tuple(bids)
    if len(bids) != inst.n:
        raise InputError("one bid per bidder required")
    for rank in range(1, inst.n + 1):
        v, b = inst.value(rank), bids[rank - 1]
        if v > c > b:
            return ReserveWitness(rank, "raise", v, b)
        if v < c < b:
            return ReserveWitness(rank, "lower", v, b)
    return None

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
from bisect import bisect_left
from fractions import Fraction
from math import comb, lcm
from typing import Optional, Sequence

from .errors import ContractError, InputError, TieError
from .games import (STRICT, WEAK, check_budget, check_kind, exact_rational, first_deviation,
                    rebids, scaled)
from .records import Record

LE = "le"
UE = "ue"
_EQUILIBRIA = (LE, UE)


def _exact_tuple(values, name: str) -> tuple:
    """`values` as a tuple of Fractions, each through `exact_rational`."""
    return tuple(exact_rational(v, name) for v in values)


def _strictly_decreasing(values) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


class AuctionInstance(Record):
    """s slots with CTRs `ctrs`, n bidders with per-click values `values`.

    Both vectors are strictly decreasing and positive; values are pairwise
    distinct by construction.  n may be smaller than s (the randomized-reserve
    analysis needs surplus slots); operations that require competition for
    slots check n > s themselves.  `slot_count` is an int; every value and
    CTR is an int, a Fraction or rational text (`games.exact_rational`).
    """

    slot_count: int
    values: tuple
    ctrs: tuple

    def __post_init__(self):
        if type(self.slot_count) is not int:  # nor a bool
            raise InputError(f"slot count must be an int, got {self.slot_count!r}")
        values = _exact_tuple(self.values, "value")
        ctrs = _exact_tuple(self.ctrs, "CTR")
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
    vals = inst.values if reports is None else _exact_tuple(reports, "report")
    return welfare_prices(inst.ctrs, vals)


# ---------------------------------------------------------------------------
# GSP and its boundary envy-free equilibria
# ---------------------------------------------------------------------------

class GspOutcome(Record):
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
    bids = _exact_tuple(bids, "bid")
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
    v_1 itself.  Bidders below rank s+1 bid their values.
    """
    inst.require_competition()
    # b_i x_{i-1} is the welfare-price sum of rank i-1; UE attaches v_{j-1}
    # to rank j, so the values shift down one rank
    values = inst.values[:1] + inst.values if upper else inst.values
    tail = welfare_prices(inst.ctrs, values)  # b_2 .. b_{s+1}
    top = inst.value(1)
    if top <= tail[0]:
        top = 2 * tail[0]
    out = [top, *tail, *inst.values[inst.s + 1:]]
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


# ---------------------------------------------------------------------------
# Pair deviations from the boundary equilibria
#
# The only joint move available to a pair (k, j), k < j <= s+1, is k taking
# slot j-1 while j shades her bid down to the bid below her; j's utility is
# untouched and k trades slot k's margin for slot j-1's.  Whether that trade
# helps is a closed-form comparison of two CTR-difference-weighted value
# sums, decided on scaled ints with one binary search per target rank j
# (`_deviation_thresholds`).  Every pair and coalition answer below reads
# those thresholds.
# ---------------------------------------------------------------------------

def _deviation_thresholds(inst: AuctionInstance, eq: str) -> list:
    """lo[j] for j = 2..s+1: the pair (k, j) deviates exactly when
    lo[j] <= k <= j-1 (lo[j] = j-1 when only the neighbour does).

    k's gain from the move is a_j (v'_j - T_j / x_j) - loss(k), and the
    pair deviates when it is positive.  Here v' is the value the boundary
    recursion attaches to a rank (v'_t = v_t at LE, v_{t-1} at UE), W[t]
    the prefix sum sum_{u=2..t} (x_{u-1}-x_u) v'_u, loss(k) =
    v_k (x_k - x_{j-1}) - (W[j-1] - W[k]) the margin k forfeits,
    a_j = x_{j-1} - x_j and T_j = W[s+1] - W[j].  CTRs and values are
    scaled once to ints (`scaled`, each vector by its own common
    denominator; both sides of the test scale alike) and the test is
    multiplied by x_j > 0 (j <= s) to clear the division.

    For fixed j, loss(k) never increases with k:
    loss(k) - loss(k+1) = (v_k - v_{k+1}) (x_k - x_{j-1}) at LE and
    (v_k - v_{k+1}) (x_{k+1} - x_{j-1}) at UE, both >= 0 for k <= j-2.  So
    the deviating k form a suffix of 1..j-2 and one binary search per j finds
    its start: O(s log s) int operations in all.  Every LE/UE pair and
    coalition answer reads these thresholds, so each needs a loser (n > s),
    as the equilibrium bids do.
    """
    if eq not in _EQUILIBRIA:
        raise InputError(f"equilibrium must be one of {_EQUILIBRIA}")
    inst.require_competition()
    s = inst.s
    x = scaled([inst.ctr(i) for i in range(0, s + 2)])  # x[0] unused
    v = scaled([inst.value(i) for i in range(0, s + 2)])  # v[0] = 0 unused
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


def pair_deviates(inst: AuctionInstance, eq: str, k: int, j: int) -> bool:
    """Whether the pair (k, j), 1 <= k < j <= s+1, has a joint deviation:
    k >= lo[j].  Neighbour pairs always do."""
    if not (1 <= k < j <= inst.s + 1):
        raise InputError(f"pair ({k},{j}) out of range for s={inst.s}")
    return k >= _deviation_thresholds(inst, eq)[j]


def deviating_pairs(inst: AuctionInstance, eq: str) -> list:
    """All pairs (k, j), 1 <= k < j <= s+1, with a joint deviation, sorted.

    Every neighbour pair (k, k+1) deviates; a distant pair deviates exactly
    when k >= lo[j].  Exact int arithmetic, one threshold per target rank:
    O(s log s) plus sorting the list.
    """
    lo = _deviation_thresholds(inst, eq)
    return sorted((k, j) for j in range(2, inst.s + 2) for k in range(lo[j], j))


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
    int ranks in 1..n (a bool is not a rank)."""
    members = tuple(members)
    if not all(type(rank) is int for rank in members):
        raise InputError("ranks must be ints")
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


def potential_count(s: int, n: int, r: int) -> int:
    """M_r, the number of coalitions `iter_potential_coalitions(s, n, r)`
    yields: t >= 1 winners from the w = min(s, n) winning ranks plus the
    loser block s+1..s+r-t, which must end at or before n, so
    M_r = sum of C(w, t) over 1 <= t <= r with r - t <= max(0, n - s),
    which is 0 for r > n."""
    if r < 1:
        raise InputError("coalition size must be positive")
    w = min(s, n)
    return sum(comb(w, t) for t in range(max(1, r - max(0, n - s)), r + 1))


def iter_potential_coalitions(s: int, n: int, r: int):
    """Potential coalitions of size r as rank tuples, winners-only first,
    then by shrinking winner count."""
    for t in range(r, 0, -1):
        block = tuple(range(s + 1, s + 1 + (r - t)))
        if block and block[-1] > n:
            continue
        for winners in itertools.combinations(range(1, min(s, n) + 1), t):
            yield winners + block


def vcg_coalition_deviation(inst: AuctionInstance, members: Sequence) -> tuple:
    """The full report vector in which every member of a potential coalition
    of two or more shades to the midpoint of its own value gap: the weak
    deviation that `count_vcg_coalition_deviations`' proof builds.  A
    coalition of one never gains (the auction is truthful), so it is a
    ContractError, like a coalition that is not potential."""
    members = tuple(members)
    if not is_potential_coalition(members, inst.s, inst.n) or len(members) < 2:
        raise ContractError("construction applies to potential coalitions "
                            "of two or more only")
    reports = list(inst.values)
    for rank in members:
        reports[rank - 1] = (inst.value(rank) + inst.value(rank + 1)) / 2
    return tuple(reports)


def count_vcg_coalition_deviations(inst: AuctionInstance, r: int) -> int:
    """Number of size-r potential coalitions with a weak deviation under the
    truthful auction: M_r (`potential_count`) for r >= 2 and 0 for r = 1,
    by the proof below; no coalition is built and no budget is charged.

    Winner i pays sum_{j=i+1..s+1} (x_{j-1} - x_j) b_j per impression, on
    the reports b ranked below it (`welfare_prices`), never its own.
    Midpoint shading, b_j = (v_j + v_{j+1}) / 2 for every member j, keeps
    every rank, so the allocation and every value stay.  So a winner with a
    member j ranked below it at j <= s+1 pays (x_{j-1} - x_j)(v_j - b_j) > 0
    less for each such j, a winner with no such member pays the same, and
    losers stay at 0.  A potential coalition of size >= 2 has either two
    winners or a winner plus the loser block that starts at s+1: in both its
    top member has a member below it at a rank of at most s+1, so no member
    loses and one gains.  A single bidder never gains, because the truthful
    auction is truthful."""
    m_r = potential_count(inst.s, inst.n, r)
    return m_r if r > 1 else 0


def _has_deviating_pair(lo: list, s: int, members: Sequence) -> bool:
    """Some pair (k, j) of the ascending `members` with j <= s+1 has
    k >= lo[j].  For each j the deviating k form the suffix lo[j]..j-1, so
    that holds exactly when the closest member below some j reaches
    lo[j]: O(r) over neighbouring members."""
    eligible = [rank for rank in members if rank <= s + 1]
    return any(k >= lo[j] for k, j in zip(eligible, eligible[1:]))


def coalition_deviates(inst: AuctionInstance, eq: str, members: Sequence) -> bool:
    """A coalition moves exactly when some pair inside it moves: the cheapest
    member is always indifferent and any extra member can free-ride, so joint
    gains reduce to pair gains."""
    lo = _deviation_thresholds(inst, eq)
    if not is_potential_coalition(members, inst.s, inst.n):
        raise ContractError("only potential coalitions are counted")
    return _has_deviating_pair(lo, inst.s, members)


def count_coalition_deviations(inst: AuctionInstance, eq: str, r: int) -> int:
    """Number of size-r potential coalitions containing a deviating pair.
    Raises BudgetExceededError up front when the M_r coalitions
    (`potential_count`) exceed the search budget."""
    lo = _deviation_thresholds(inst, eq)
    check_budget(potential_count(inst.s, inst.n, r), unit="potential coalitions")
    return sum(_has_deviating_pair(lo, inst.s, members)
               for members in iter_potential_coalitions(inst.s, inst.n, r))


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
    d, points = _scaled_bid_grid(_exact_tuple(bids, "bid"), refine)
    return tuple(Fraction(p, d) for p in points)


def _scaled_bid_grid(bids: tuple, refine: int, extra: Sequence = ()) -> tuple:
    """(d, points): `bid_grid` times d as ascending ints.  d is 2*refine
    times the lcm of the denominators of `bids` and `extra`, so every gap
    between the grid's anchors splits into 2*refine int steps and `extra`
    scales to ints as well."""
    if refine < 1:
        raise InputError("refine must be at least 1")
    d = 2 * refine * lcm(*(f.denominator for f in (*bids, *extra)))
    anchors = sorted({b.numerator * (d // b.denominator) for b in bids})
    points = gap_points([0, *anchors, 2 * anchors[-1]], 2 * refine)
    return d, sorted(points.union(anchors))


def gap_points(anchors: Sequence, pieces: int) -> set:
    """The pieces - 1 evenly spaced interior points of each gap between
    consecutive `anchors`: the grid rule of `bid_grid` and
    `reserve.misreport_grid`.  The anchors are ints, scaled by the caller
    so that `pieces` divides every gap, and the points are ints on the same
    scale (AssertionError for a gap that does not divide)."""
    points = set()
    for a, b in zip(anchors, anchors[1:]):
        step, rest = divmod(b - a, pieces)
        if rest:
            raise AssertionError(f"gap {a}..{b} does not split into {pieces} "
                                 "int steps")
        points.update(a + step * t for t in range(1, pieces))
    return points


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

    The scan runs on ints.  The grid is built scaled (`_scaled_bid_grid`),
    by a d that also turns the bids and values into ints, and the CTRs are
    scaled by the lcm X of their denominators, so every utility becomes an
    int d*X times the true one and every comparison keeps its outcome.
    Outsiders never rebid, so one bisection over their sorted bids gives,
    for each grid point, the number of outsiders above it and the highest
    outsider bid below it (0 if none).  A member bidding c then holds rank
    1 + (outsiders above c) + (members above c) and pays the larger of that
    outsider bid and the highest member bid below c; past slot s its
    utility is 0.  The grid points an outsider bids are taken off every
    member's axis, and no joint in which two members bid alike is built.

    Only candidates in which every member can still reach its base utility
    u_j are judged.  Let U_j(P) be member j's utility by the rule above
    when only the members' bids P (j's own among them) join the outsiders'.
    Every candidate that extends P gives j a rank t' >= t and a price
    p' >= p, since each added bid lands above j's or below it, so j's
    utility there is at most max(0, U_j(P)): when v_j >= p' it is
    (v_j - p') x_t' <= (v_j - p) x_t' <= (v_j - p) x_t with x decreasing,
    and otherwise, or past slot s, it is at most 0.  A deviation needs
    every member's utility to reach u_j (weak) or u_j + 1 (strict, on
    ints), call it need_j; only a member with need_j > 0 can fail it here.
    So a grid point c leaves such a member's axis when U_j({c}) < need_j,
    and a prefix of the first k + 1 < r members' bids is dropped with all
    its completions when such a member of the prefix has
    U_j(prefix) < need_j.  The survivors come in
    `itertools.product` order, and every candidate dropped would have
    failed, so `first_deviation`, which judges every survivor in full,
    returns the same first witness as the unpruned scan.

    Each member utility is O(r) int work, computed only when asked for, so
    a candidate dropped at its first failing member costs one member's
    utility, and the n - r outsiders are never touched.  A witness is
    re-judged once through `gsp_outcome`, the `Fraction` route."""
    check_kind(kind)
    bids = _exact_tuple(bids, "bid")
    indices = [rank - 1 for rank in _check_ranks(members, inst.n)]
    if min(bids, default=0) < 0:
        raise InputError("bids must be nonnegative")
    base = gsp_outcome(inst, bids).utilities
    d, grid = _scaled_bid_grid(bids, refine, inst.values)
    r = len(indices)
    check_budget(len(grid) ** r)
    xd = lcm(*(f.denominator for f in inst.ctrs))
    x = [int(f * xd) for f in inst.ctrs]
    outsiders = sorted(int(b * d) for i, b in enumerate(bids) if i not in indices)
    taken = set(outsiders)
    above, below = {}, {}
    for c in grid:
        if c not in taken:
            k = bisect_left(outsiders, c)
            above[c] = len(outsiders) - k
            below[c] = outsiders[k - 1] if k else 0
    values = [int(inst.values[i] * d) for i in indices]
    start = [int(base[i] * d * xd) for i in indices]
    need = [u + (kind == STRICT) for u in start]  # a strict gain is >= 1
    s = inst.s

    def utility(j, joint):
        c = joint[j]
        rank, price = above[c], below[c]  # rank counted from 0
        for other in joint:  # a bid equal to c, j's own, counts for neither
            if other > c:
                rank += 1
            elif price < other < c:
                price = other
        return (values[j] - price) * x[rank] if rank < s else 0

    # (c,) * r stands for j bidding c against the outsiders alone
    axes = [[c for c in above if need[j] <= 0 or utility(j, (c,) * r) >= need[j]]
            for j in range(r)]
    prunable = [[j for j in range(k + 1) if need[j] > 0] for k in range(r)]

    def joints(prefix):
        """The surviving joints that extend `prefix`, in product order."""
        k = len(prefix)
        if k == r - 1:
            for c in axes[k]:
                if c not in prefix:
                    yield prefix + (c,)
            return
        for c in axes[k]:
            if c not in prefix:
                joint = prefix + (c,)
                if k == 0 or all(utility(j, joint) >= need[j] for j in prunable[k]):
                    yield from joints(joint)

    found = first_deviation(joints(()), range(r), start, utility, kind)
    if found is None:
        return None
    witness = next(rebids(bids, indices, [[Fraction(c, d) for c in found]]))
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


class ShapeSpec(Record):
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
        if type(self.length) is not int or self.length < 2:  # nor a bool
            raise InputError(f"shapes need an int length of at least 2, "
                             f"got {self.length!r}")
        for name in ("beta", "high", "low"):
            raw = getattr(self, name)
            if raw is not None:
                object.__setattr__(self, name, exact_rational(raw, name))
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
    # each kind gives its last entry and drops[i] = vec[i] - vec[i+1]
    beta = spec.beta
    if spec.kind == "convex":  # harmonic-style drops, strictly shrinking
        last, drops = Fraction(1), [Fraction(1, i + 2) for i in range(L - 1)]
    elif spec.kind == "concave":  # drops grow toward the end
        last, drops = Fraction(L), [Fraction(1, L - i) for i in range(L - 1)]
    elif spec.kind == "beta_convex":
        last, drops = Fraction(1), [beta ** (L - 2 - i) for i in range(L - 1)]
    else:  # beta_concave: beta^L keeps late values far above early differences
        last, drops = beta ** L, [beta ** i for i in range(L - 1)]
    vec = list(itertools.accumulate(reversed(drops), initial=last))[::-1]
    if spec.high is not None:
        scale = spec.high / vec[0]
        vec = [scale * v for v in vec]
    if not (_strictly_decreasing(vec) and vec[-1] > 0):
        raise InputError("shape parameters produce an invalid vector")
    return tuple(vec)


def make_instance(s: int, value_spec: ShapeSpec,
                  ctr_spec: ShapeSpec) -> AuctionInstance:
    """Instance with s slots and shape-generated values and CTRs: one bidder
    per entry of `value_spec`, and `ctr_spec` must have length s."""
    return AuctionInstance(s, make_shape(value_spec), make_shape(ctr_spec))


# ---------------------------------------------------------------------------
# Reserve-price instability witness
# ---------------------------------------------------------------------------

class ReserveWitness(Record):
    bidder_rank: int
    case: str  # "raise": value above the reserve but bid below; "lower": converse
    value: Fraction
    bid: Fraction


def gsp_reserve_witness(inst: AuctionInstance, bids: Sequence, c) -> Optional[ReserveWitness]:
    """First bidder whose (bid, value) pair straddles the reserve c, i.e. who
    would rebid once the reserve binds; None when c separates no pair."""
    c = exact_rational(c, "reserve")
    bids = _exact_tuple(bids, "bid")
    if len(bids) != inst.n:
        raise InputError("one bid per bidder required")
    for rank in range(1, inst.n + 1):
        v, b = inst.value(rank), bids[rank - 1]
        if v > c > b:
            return ReserveWitness(rank, "raise", v, b)
        if v < c < b:
            return ReserveWitness(rank, "lower", v, b)
    return None

"""Reserve-price variants of the truthful position auction.

A fixed reserve c filters out low reports and props every payment up to at
least c; two independent computations of that mechanism (shift-and-rerun vs
clamp-the-values) are kept side by side and must agree exactly.  Randomising
the reserve (drawn uniformly from [0, v_max] with probability q_reserve,
otherwise 0) makes *joint* misreporting unprofitable: whoever lowers her
report risks the reserve landing inside the gap she opened.  With at least
as many slots as bidders, truth-telling then resists every coalition's weak
deviation; a small slot-randomisation parameter manufactures the missing
slots when bidders outnumber them.

Expected utilities are exact and in closed form: for fixed reports the
utility is affine in the reserve between consecutive reports, so its
integral over the reserve's range has a two-term closed form.
"""

import itertools
import math
import warnings
from fractions import Fraction
from typing import Optional, Sequence

from .auction import AuctionInstance, gap_points, untied_joints, welfare_prices
from .errors import ContractWarning, InputError
from .games import WEAK, check_budget, first_deviation, rebids
from .records import Record

FILTERED = "filtered"
CLAMPED = "clamped"
_MODES = (FILTERED, CLAMPED)


class VcgStarConfig(Record):
    """Randomised reserve: with probability q_reserve the reserve is uniform
    on [0, v_max], otherwise 0.  q_reserve = 0 is allowed as the degenerate
    no-reserve control.  v_max = None defers to twice the top value of the
    instance at hand."""

    q_reserve: Fraction
    v_max: Optional[Fraction] = None

    def __post_init__(self):
        object.__setattr__(self, "q_reserve", Fraction(self.q_reserve))
        if not 0 <= self.q_reserve <= 1:
            raise InputError("q_reserve must lie in [0, 1]")
        if self.v_max is not None:
            object.__setattr__(self, "v_max", Fraction(self.v_max))
            if self.v_max <= 0:
                raise InputError("v_max must be positive")

    def resolved_v_max(self, inst: AuctionInstance) -> Fraction:
        return self.v_max if self.v_max is not None else 2 * inst.values[0]


class ReserveOutcome(Record):
    """Slots in report order: allocation[j-1] is the 0-based bidder in slot j."""

    allocation: tuple
    payments: tuple
    utilities: tuple


def _ranked_reports(inst: AuctionInstance, reports: Optional[Sequence]):
    if reports is None:
        reports = inst.values
    reports = tuple(Fraction(r) for r in reports)
    if len(reports) != inst.n:
        raise InputError("one report per bidder required")
    if len(set(reports)) != len(reports):
        raise InputError("reports must be pairwise distinct")
    order = sorted(range(inst.n), key=lambda i: reports[i], reverse=True)
    return reports, order


def reserve_vcg(inst: AuctionInstance, c, mode: str = FILTERED,
                reports: Optional[Sequence] = None) -> ReserveOutcome:
    """Fixed-reserve auction, computed by one of two equivalent routes.

    filtered: drop reports below c, shift the survivors down by c, run the
    plain payment rule (absent ranks are worth 0) and add c back.
    clamped: keep everybody, lift every report to at least c, run the plain
    payment rule, then allocate only to survivors.
    """
    if mode not in _MODES:
        raise InputError(f"mode must be one of {_MODES}")
    c = Fraction(c)
    if c < 0:
        raise InputError("reserve price must be nonnegative")
    reports, order = _ranked_reports(inst, reports)
    survivors = [i for i in order if reports[i] >= c]
    winners = survivors[:min(inst.s, len(survivors))]
    if mode == FILTERED:
        shifted = [reports[i] - c for i in survivors]
        payments = [c + p for p in welfare_prices(inst.ctrs, shifted)]
    else:
        # the reserve also stands in for empty ranks, exactly as the seller's
        # outside option does in the filtered route
        clamped = [max(reports[i], c) for i in order]
        clamped += [c] * (inst.s + 1 - len(clamped))
        payments = welfare_prices(inst.ctrs, clamped)[:len(winners)]
    utilities = [Fraction(0)] * inst.n
    for slot, bidder in enumerate(winners, start=1):
        utilities[bidder] = (inst.values[bidder] - payments[slot - 1]) * inst.ctr(slot)
    return ReserveOutcome(tuple(winners), tuple(payments), tuple(utilities))


# ---------------------------------------------------------------------------
# Randomised reserve: exact expected utilities and the coalition checker
# ---------------------------------------------------------------------------

def expected_utilities_vcg_star(inst: AuctionInstance, cfg: VcgStarConfig,
                                reports: Optional[Sequence] = None) -> tuple:
    """Exact expected utility of every bidder under the randomised reserve
    (`_expected_utility`, once per bidder on one ranking)."""
    reports, ranked = _ranked_reports(inst, reports)
    v_max = cfg.resolved_v_max(inst)
    if any(r >= v_max for r in reports):
        raise InputError("every report must stay below v_max")
    return tuple(_expected_utility(inst, cfg.q_reserve, v_max, reports, ranked, i)
                 for i in range(inst.n))


def misreport_grid(inst: AuctionInstance, agent: int, refine: int,
                   v_max: Fraction) -> tuple:
    """Candidate misreports in (0, v_max) for one agent: evenly spaced
    interior points of every cell between consecutive true values (2^refine
    pieces per cell) plus two probes just beside the agent's own value.
    Expected utility as a function of one report changes form only where
    that report crosses another's, and inside such a cell it is a concave
    quadratic when the reserve is random (affine when q = 0), so the grid
    samples every cell rather than witnessing it exactly."""
    if not 0 <= agent < inst.n:
        raise InputError(f"agent {agent} out of range")
    if refine < 1:
        raise InputError("refine must be at least 1")
    anchors = sorted(set(inst.values) | {Fraction(0), Fraction(v_max)})
    points = gap_points(anchors, 2 ** refine)
    gaps = [b - a for a, b in zip(anchors, anchors[1:])]
    delta = min(gaps) / 4 / 2 ** (refine - 1)
    own = inst.values[agent]
    points.add(own - delta)
    points.add(own + delta)
    points.discard(own)
    return tuple(sorted(p for p in points if 0 < p < v_max))


def _expected_utility(inst: AuctionInstance, q: Fraction, v_max: Fraction,
                      reports, ranked, agent: int) -> Fraction:
    """Expected utility of one agent under the randomised reserve: the
    library's one formula for it.

    `ranked` is the report-descending bidder order; every report stays
    below v_max.  At reserve c the agent survives iff its report b is at
    least c, and then pays the filtered route's price: c plus the plain
    payment rule on the surviving reports shifted down by c.  At rank t <= s
    with value v, that utility is affine in c between reports, so with
    a_j = x_{j-1} - x_j summed over ranks j = t+1..min(s+1, n) and reports
    below 0 read as 0:
        u(0)                        = v*x_t - sum a_j*b_j
        integral of u on [0, v_max] = x_t*(v*b - b^2/2) - sum a_j*b_j^2/2
        E                           = (1 - q)*u(0) + (q/v_max)*integral.
    An agent ranked past s, or reporting below 0, gets 0.  The tests check
    it against `reserve_vcg` integrated piece by piece."""
    own = reports[agent]
    rank = ranked.index(agent) + 1
    if rank > inst.s or own < 0:
        return Fraction(0)
    x_t = inst.ctr(rank)
    value = inst.values[agent]
    at_zero = value * x_t
    area = x_t * (value * own - own * own / 2)
    for j in range(rank + 1, min(inst.s + 1, inst.n) + 1):
        below = reports[ranked[j - 1]]
        if below <= 0:
            break
        gap = inst.ctr(j - 1) - inst.ctr(j)
        at_zero -= gap * below
        area -= gap * below * below / 2
    return (1 - q) * at_zero + q * area / v_max


class SseVerdict(Record):
    """Outcome of the truth-telling coalition search.

    `certified` means no weak deviation exists among the searched coalitions
    and grid misreports (a grid-relative statement); otherwise `members`
    (0-based) and `reports` describe the first deviation found in the fixed
    search order.
    """

    certified: bool
    members: Optional[tuple] = None
    reports: Optional[tuple] = None
    combos_checked: int = 0


def check_truthful_sse(inst: AuctionInstance, cfg: VcgStarConfig,
                       refine: int = 1,
                       max_coalition: Optional[int] = None) -> SseVerdict:
    """Search every coalition and grid misreport for a weak deviation in
    expected utility from truthful reporting, over the coalitions of size
    1..max_coalition (default min(n, 4); InputError outside 1..n).

    Certification is meaningful only with at least as many slots as bidders;
    with fewer slots the first loser is a free indifferent member and a
    deviation is expected (a ContractWarning flags that regime).  Raises
    BudgetExceededError up front when the searched space (the sum over
    coalitions of their grid sizes' product) exceeds the search budget.
    """
    if max_coalition is None:
        max_coalition = min(inst.n, 4)
    if not 1 <= max_coalition <= inst.n:
        raise InputError(f"max_coalition {max_coalition} outside 1..{inst.n}")
    if inst.s < inst.n:
        warnings.warn("certification requires at least as many slots as "
                      "bidders; expect a deviation", ContractWarning,
                      stacklevel=2)
    v_max = cfg.resolved_v_max(inst)
    grids = [misreport_grid(inst, i, refine, v_max) for i in range(inst.n)]
    check_budget(sum(math.prod(len(grids[i]) for i in members)
                     for size in range(1, max_coalition + 1)
                     for members in itertools.combinations(range(inst.n), size)),
                 unit="misreport combos")
    truthful = expected_utilities_vcg_star(inst, cfg, None)
    values = inst.values
    checked = 0

    def candidates(members):
        nonlocal checked
        joints = untied_joints(itertools.product(*(grids[i] for i in members)),
                               values, members)
        for reports in rebids(values, members, joints):
            checked += 1
            ranked = sorted(range(inst.n), key=reports.__getitem__, reverse=True)
            yield reports, ranked

    def expected(i, candidate):
        return _expected_utility(inst, cfg.q_reserve, v_max, *candidate, i)

    for size in range(1, max_coalition + 1):
        for members in itertools.combinations(range(inst.n), size):
            found = first_deviation(candidates(members), members,
                                    [truthful[i] for i in members], expected,
                                    WEAK)
            if found is not None:
                return SseVerdict(False, members, found[0], checked)
    return SseVerdict(True, combos_checked=checked)


# ---------------------------------------------------------------------------
# Slot randomisation: manufacture one expected slot per bidder
# ---------------------------------------------------------------------------

class LambdaExtension(Record):
    """Expected-CTR view of the slot-randomised auction: the first s-1 slots
    are untouched, slot s keeps (1-(n-s)*lam) of its rate and each of the
    n-s synthetic slots carries lam * x_s."""

    extended_ctrs: tuple
    payments: tuple


def vcg_star_lambda(inst: AuctionInstance, lam) -> LambdaExtension:
    """Build the n-slot expected-CTR vector and its truthful payments for the
    slot-randomisation weight lam, 0 < lam < 1/n.

    The original slot order survives because lam < 1/n forces
    (1-(n-s)*lam) * x_s > lam * x_s; the synthetic slots share one expected
    rate, which the payment rule tolerates (their pairwise CTR differences
    vanish from every sum).
    """
    lam = Fraction(lam)
    if not 0 < lam < Fraction(1, inst.n):
        raise InputError("lambda must lie strictly between 0 and 1/n")
    if inst.n <= inst.s:
        raise InputError("slot randomisation only applies when bidders "
                         "outnumber slots")
    extra = inst.n - inst.s
    shrunk = (1 - extra * lam) * inst.ctrs[-1]
    synthetic = lam * inst.ctrs[-1]
    if not (shrunk > synthetic > 0):
        raise AssertionError("lambda below 1/n must preserve slot order")
    extended = inst.ctrs[:-1] + (shrunk,) + (synthetic,) * extra
    return LambdaExtension(extended, welfare_prices(extended, inst.values))


def lambda_payment_gap_bound(inst: AuctionInstance, lam) -> Fraction:
    """v_1 * n * lam, the advertised ceiling on any winner's payment shift."""
    return inst.values[0] * inst.n * Fraction(lam)

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
integral over the reserve's range has a two-term closed form.  That form,
`_closed_form`, is written once and works on whatever numbers it is given:
`Fraction`s for `expected_utilities_vcg_star`, and ints scaled once per call
for the certification `check_truthful_sse`, which ranks and scores every
candidate in int arithmetic and re-judges a witness through the `Fraction`
route.
"""

import itertools
import math
import warnings
from fractions import Fraction
from typing import Optional, Sequence

from .auction import AuctionInstance, gap_points, welfare_prices
from .errors import ContractWarning, InputError
from .games import WEAK, check_budget, exact_rational, first_deviation, rebids
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
        object.__setattr__(self, "q_reserve", exact_rational(self.q_reserve, "q_reserve"))
        if not 0 <= self.q_reserve <= 1:
            raise InputError("q_reserve must lie in [0, 1]")
        if self.v_max is not None:
            object.__setattr__(self, "v_max", exact_rational(self.v_max, "v_max"))
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
    reports = tuple(exact_rational(r, "report") for r in reports)
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
    c = exact_rational(c, "reserve")
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
    """Exact expected utility of every bidder under the randomised reserve:
    `_closed_form` on `Fraction`s, once per bidder on one ranking, divided
    once by 2*c*v_max for q_reserve = a/c."""
    reports, ranked = _ranked_reports(inst, reports)
    v_max = cfg.resolved_v_max(inst)
    if any(r >= v_max for r in reports):
        raise InputError("every report must stay below v_max")
    utility = _closed_form(cfg.q_reserve, v_max, inst.values, inst.ctrs)
    scale = 2 * cfg.q_reserve.denominator * v_max
    return tuple(utility(i, (reports, ranked)) / scale for i in range(inst.n))


def misreport_grid(inst: AuctionInstance, agent: int, refine: int,
                   v_max: Fraction) -> tuple:
    """Candidate misreports in (0, v_max) for one agent: evenly spaced
    interior points of every cell between consecutive true values (2^refine
    pieces per cell) plus two probes just beside the agent's own value.
    Expected utility as a function of one report changes form only where
    that report crosses another's, and inside such a cell it is a concave
    quadratic when the reserve is random (affine when q = 0), so the grid
    samples every cell rather than witnessing it exactly.  The points are
    built on ints (`auction.gap_points`): the cell ends are scaled by
    2^(refine+1) times the lcm of their denominators, so every cell splits
    into 2^refine int steps and each probe sits half the smallest step from
    the value.  No point equals any bidder's value."""
    if not 0 <= agent < inst.n:
        raise InputError(f"agent {agent} out of range")
    if refine < 1:
        raise InputError("refine must be at least 1")
    pieces = 2 ** refine
    v_max = exact_rational(v_max, "v_max")
    anchors = sorted(set(inst.values) | {Fraction(0), v_max})
    d = 2 * pieces * math.lcm(*(a.denominator for a in anchors))
    scaled = [a.numerator * (d // a.denominator) for a in anchors]
    points = gap_points(scaled, pieces)
    delta = min(b - a for a, b in zip(scaled, scaled[1:])) // (2 * pieces)
    own = int(inst.values[agent] * d)
    points.add(own - delta)
    points.add(own + delta)
    points.discard(own)
    top = v_max * d
    return tuple(Fraction(p, d) for p in sorted(points) if 0 < p < top)


def misreport_grid_size(n: int, refine: int) -> int:
    """len(misreport_grid(inst, agent, refine, v_max)) for every agent of an
    n-bidder instance whose values all lie in (0, v_max): 2^refine - 1
    interior points in each of the n + 1 cells between 0, the values and
    v_max, plus the two probes.  A probe sits half the smallest cell's step
    from the agent's value, so it falls strictly inside the first step of
    its cell and never meets another point."""
    if refine < 1:
        raise InputError("refine must be at least 1")
    return (n + 1) * (2 ** refine - 1) + 2


def _closed_form(q: Fraction, v_max, values: Sequence, ctrs: Sequence):
    """Expected utility under the randomised reserve, the library's one
    formula for it, as `utility(agent, (reports, ranked))` = 2*c*v_max*E
    for q = a/c.

    `ranked` is the report-descending bidder order; every report stays
    below v_max.  At reserve r the agent survives iff its report b is at
    least r, and then pays the filtered route's price: r plus the plain
    payment rule on the surviving reports shifted down by r.  At rank t <= s
    with value v, that utility is affine in r between reports, so with
    g_j = x_{j-1} - x_j summed over ranks j = t+1..min(s+1, n) and reports
    below 0 read as 0:
        u(0)                            = v*x_t - sum g_j*b_j
        2 * integral of u on [0, v_max] = x_t*(2*v*b - b^2) - sum g_j*b_j^2
        2*c*v_max*E                     = 2*(c - a)*v_max*u(0)
                                          + a * (2 * integral).
    An agent ranked past s, or reporting below 0, gets 0.

    Only sums and products appear, so the form works on whatever numbers it
    is given: on `Fraction`s it is 2*c*v_max*E; with v_max, the values and
    the reports times D and the CTRs times X it is D*D*X times that, an int
    when those scaled inputs are ints.  The tests check it against
    `reserve_vcg` integrated piece by piece."""
    a, c = q.numerator, q.denominator
    weight = 2 * (c - a) * v_max
    s = len(ctrs)
    stop = min(s + 1, len(values))
    x = (*ctrs, 0)
    gaps = [hi - lo for hi, lo in zip(x, x[1:])]  # gaps[j - 1] is g_j, from 0

    def utility(agent, candidate):
        reports, ranked = candidate
        rank = ranked.index(agent)  # counted from 0
        own = reports[agent]
        if rank >= s or own < 0:
            return 0
        x_t, value = x[rank], values[agent]
        at_zero = value * x_t
        area = x_t * (2 * value - own) * own
        for j in range(rank + 1, stop):
            below = reports[ranked[j]]
            if below <= 0:
                break
            at_zero -= gaps[j - 1] * below
            area -= gaps[j - 1] * below * below
        return weight * at_zero + a * area

    return utility


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
    deviation is expected (a ContractWarning flags that regime).  A v_max
    at or below the top value is an InputError.  Then, before any grid is
    built, BudgetExceededError is raised when the searched space (the sum
    over coalitions of their grid sizes' product, `misreport_grid_size`
    each) exceeds the search budget.

    The search runs on ints.  The values, v_max and every grid point are
    scaled once by the lcm D of their denominators and the CTRs by the lcm
    X of theirs, so `_closed_form` gives the int 2*c*(v_max*D)*D*X*E for
    every candidate and every comparison keeps its outcome.  The truthful
    baseline is the `Fraction` result of `expected_utilities_vcg_star`
    times that factor (an AssertionError if it is no int).  Combos in which
    two members report alike are skipped; no grid point equals a value
    (`misreport_grid`), so no member ties an outsider.  Each candidate is
    ranked by sorting its int reports.  A witness is mapped back to
    `Fraction` reports and judged again through `expected_utilities_vcg_star`
    and `first_deviation`; an AssertionError is raised if the two routes
    disagree.
    """
    if max_coalition is None:
        max_coalition = min(inst.n, 4)
    if not 1 <= max_coalition <= inst.n:
        raise InputError(f"max_coalition {max_coalition} outside 1..{inst.n}")
    if inst.s < inst.n:
        warnings.warn("certification requires at least as many slots as "
                      "bidders; expect a deviation", ContractWarning,
                      stacklevel=2)
    truthful = expected_utilities_vcg_star(inst, cfg)  # rejects a low v_max
    points = misreport_grid_size(inst.n, refine)
    check_budget(sum(math.comb(inst.n, size) * points ** size
                     for size in range(1, max_coalition + 1)),
                 unit="misreport combos")
    v_max = cfg.resolved_v_max(inst)
    grids = [misreport_grid(inst, i, refine, v_max) for i in range(inst.n)]
    d = math.lcm(*(f.denominator
                   for f in itertools.chain(inst.values, [v_max], *grids)))
    xd = math.lcm(*(f.denominator for f in inst.ctrs))
    scaled_v_max = int(v_max * d)
    values = [int(v * d) for v in inst.values]
    utility = _closed_form(cfg.q_reserve, scaled_v_max, values,
                           [int(x * xd) for x in inst.ctrs])
    factor = 2 * cfg.q_reserve.denominator * scaled_v_max * d * xd
    base = [e * factor for e in truthful]
    if any(b.denominator != 1 for b in base):
        raise AssertionError(f"scaled truthful utilities {base} are not ints")
    base = [int(b) for b in base]
    grids = [[int(p * d) for p in grid] for grid in grids]
    bidders = range(inst.n)
    checked = 0

    def candidates(members):
        nonlocal checked
        joints = (joint for joint in itertools.product(*(grids[i] for i in members))
                  if len(set(joint)) == len(joint))
        for reports in rebids(values, members, joints):
            checked += 1
            yield reports, sorted(bidders, key=reports.__getitem__, reverse=True)

    for size in range(1, max_coalition + 1):
        for members in itertools.combinations(range(inst.n), size):
            found = first_deviation(candidates(members), members,
                                    [base[i] for i in members], utility, WEAK)
            if found is None:
                continue
            witness = tuple(Fraction(r, d) for r in found[0])
            moved = expected_utilities_vcg_star(inst, cfg, witness)
            if first_deviation([witness], members, [truthful[i] for i in members],
                               lambda i, _: moved[i], WEAK) is None:
                raise AssertionError(f"integer search witness {witness} fails "
                                     "the exact Fraction check")
            return SseVerdict(False, members, witness, checked)
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
    lam = exact_rational(lam, "lambda")
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
    return inst.values[0] * inst.n * exact_rational(lam, "lambda")

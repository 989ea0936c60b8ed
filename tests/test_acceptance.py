"""Acceptance suite: one test per shipped guarantee, each printing a verdict
line and enforcing its runtime budget (run with `pytest -v -s` to watch).

Exact claims are asserted with exact arithmetic; statistical claims use the
pinned seeds recorded here.
"""

import itertools
import math
import random
import time
import warnings
from fractions import Fraction

import pytest

from coalstab import auction, games, reserve, srsg
from coalstab.errors import ContractWarning
from conftest import (REPEAT, ROTATE, SPLIT, judged_vcg_deviations, pair_gain,
                      random_auction, simulate_pair_deviation, vcg_payments_recursive)


def report(label: str, elapsed: float, budget: float) -> None:
    print(f"\n[acceptance] {label}: PASS ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert elapsed < budget, f"{label} exceeded its {budget:.0f}s budget"


def weak_pairs_at_least(game, profile, threshold: int) -> bool:
    found = 0
    for pair in itertools.combinations(range(game.player_count), 2):
        if games.has_deviation(game, profile, pair, games.WEAK):
            found += 1
            if found >= threshold:
                return True
    return False


def test_c01_worked_example_counts_and_pair_vulnerability(
        small_instance, small_game):
    start = time.monotonic()
    profiles = {name: srsg.assignment_to_profile(small_instance, a)
                for name, a in (("repeat", REPEAT), ("split", SPLIT),
                                ("rotate", ROTATE))}
    assert games.score_vector(small_game, profiles["repeat"],
                              games.STRICT, 2).counts == (0, 2)
    split_vector = games.score_vector(small_game, profiles["split"],
                                      games.STRICT, 4)
    assert split_vector.count(2) == 0 and split_vector.count(4) == 1
    rotate_vector = games.score_vector(small_game, profiles["rotate"],
                                       games.STRICT, 6)
    assert rotate_vector.counts == (0,) * 6  # fully stable against strict moves

    for profile in profiles.values():
        assert weak_pairs_at_least(small_game, profile, 2)
    rng = random.Random(2024)
    for _ in range(1000):
        profile = tuple(rng.randrange(16) for _ in range(6))
        assert weak_pairs_at_least(small_game, profile, 2)
    report("c01 worked-example scores, weak pairs >= 2", time.monotonic() - start, 60)


def test_c02_repeat_construction_count_closed_form():
    start = time.monotonic()
    for m in range(2, 7):
        for n in range(m + 1, 4 * m + 1):
            inst = srsg.SrsgInstance(m, n, 2, srsg.CostFn.linear(n))
            repeat = srsg.build_repeat_ne(inst)
            expected = inst.q * math.comb(inst.full_load, 2)
            assert srsg.count_pair_deviations(inst, repeat) == expected
            assert srsg.count_pair_deviations(inst, repeat, "bruteforce") == expected
    report("c02 repeat-profile count q*C(ceil(n/m),2), brute-force confirmed",
           time.monotonic() - start, 60)


SCATTER_CONSTANT = Fraction(1, 4)  # fitted over the full grid; worst cell ~0.151


def test_c03_scatter_construction_zero_or_quadratically_bounded():
    start = time.monotonic()
    checked = 0
    for m in range(2, 9):
        for n in range(m + 1, m * m + 2 * m + 1):
            inst = srsg.SrsgInstance(m, n, 2, srsg.CostFn.linear(n))
            scatter = srsg.build_scatter_ne(inst)
            assert srsg.is_nash(inst, scatter)
            count = srsg.count_pair_deviations(inst, scatter)
            if n < m * m or 2 * inst.q <= m:
                assert count == 0
            else:
                assert count <= SCATTER_CONSTANT * n * n / (m * m)
                checked += 1
    assert checked > 0  # the hard regime is actually exercised
    # spot confirmation by exhaustive search on small cells
    for m, n in ((3, 11), (3, 14)):
        inst = srsg.SrsgInstance(m, n, 2, srsg.CostFn.linear(n))
        scatter = srsg.build_scatter_ne(inst)
        assert srsg.count_pair_deviations(inst, scatter) == \
            srsg.count_pair_deviations(inst, scatter, "bruteforce")
    report("c03 scatter-profile count zero in easy regimes, <= C n^2/m^2",
           time.monotonic() - start, 60)


@pytest.mark.parametrize("m,n,k", [(4, 26, 3), (10, 55, 3), (6, 40, 5)])
def test_c04_random_equilibrium_pair_count_expectation(m, n, k):
    start = time.monotonic()
    inst = srsg.SrsgInstance(m, n, k, srsg.CostFn.linear(n))
    counts = srsg.sample_pair_deviation_counts(inst, 10_000, 42)
    mean = sum(counts) / len(counts)
    collision_form = float(srsg.expected_pair_deviations(inst, "collision"))
    assert abs(mean - collision_form) / collision_form < 0.15
    mu = float(srsg.exact_expected_pair_deviations(inst))
    var = sum((c - mean) ** 2 for c in counts) / (len(counts) - 1)
    sigma = math.sqrt(var / len(counts))
    assert abs(mean - mu) < 3 * sigma
    report(f"c04 Monte-Carlo mean vs formulas (m={m}, n={n}, k={k})",
           time.monotonic() - start, 300)


def test_srsg_equilibria_compared_at_scale():
    """srsg(6,30,3) scored up to r = 3 through the deviation hook: the
    repeat equilibrium against a seeded random one.  The vectors are pinned;
    no runtime gate."""
    inst = srsg.SrsgInstance(6, 30, 3, srsg.CostFn.linear(30))
    game = srsg.induced_game(inst)
    pinned = {("repeat", games.STRICT): (0, 0, 60), ("repeat", games.WEAK): (0, 0, 60),
              ("random", games.STRICT): (0, 0, 0), ("random", games.WEAK): (0, 0, 129)}
    equilibria = {"repeat": srsg.build_repeat_ne(inst),
                  "random": srsg.sample_random_ne(inst, 5)}
    for (name, kind), counts in pinned.items():
        profile = srsg.assignment_to_profile(inst, equilibria[name])
        assert games.score_vector(game, profile, kind, 3).counts == counts, (name, kind)


def test_srsg_repeat_equilibrium_scored_to_four():
    """srsg(6,30,3)'s repeat equilibrium up to r = 4.  The default budget
    charges each 4-coalition its 216^4 joint actions and refuses it, so the
    budget is raised; the hook decides each of the 126 orbits of size 4
    once.  The vectors are pinned; no runtime gate."""
    inst = srsg.SrsgInstance(6, 30, 3, srsg.CostFn.linear(30))
    profile = srsg.assignment_to_profile(inst, srsg.build_repeat_ne(inst))
    game = srsg.induced_game(inst)
    for kind, counts in ((games.STRICT, (0, 0, 60, 30)), (games.WEAK, (0, 0, 60, 1530))):
        assert games.score_vector(game, profile, kind, 4, budget=10**14).counts == counts


def test_c05_revenue_equivalence_and_recursion_identity():
    start = time.monotonic()
    rng = random.Random(55)
    for _ in range(1000):
        s = rng.randrange(1, 21)
        inst = random_auction(rng, s, rng.randrange(s + 1, 2 * s + 2))
        direct = auction.vcg_payments(inst)
        assert auction.gsp_outcome(inst, auction.le_bids(inst)).payments == direct
        assert vcg_payments_recursive(inst) == direct
    report("c05 lower-equilibrium payments = truthful payments = recursion",
           time.monotonic() - start, 10)


def test_c06_pair_move_formula_equals_simulation():
    start = time.monotonic()
    rng = random.Random(66)
    for _ in range(100):
        s = rng.randrange(2, 16)
        inst = random_auction(rng, s, s + 1)
        outcome = auction.gsp_outcome(inst, auction.le_bids(inst))
        for k in range(1, s + 1):
            for j in range(k + 1, s + 2):
                before = outcome.utilities[k - 1]
                after = simulate_pair_deviation(inst, "le", k, j)
                assert pair_gain(inst, "le", k, j) == after - before
                assert auction.pair_deviates(inst, "le", k, j) == (after > before)
    report("c06 closed-form pair gain = simulated gain on every pair, "
           "and the pair predicate reads its sign",
           time.monotonic() - start, 30)


def test_c07_decay_extremes_pin_the_pair_count():
    start = time.monotonic()
    for s in range(2, 51):
        fast_decay = auction.make_instance(
            s, auction.ShapeSpec("beta_convex", 2 * s, beta=2),
            auction.ShapeSpec("linear", s))
        assert auction.count_pair_deviations(fast_decay, "le") == s
        late_cliff = auction.make_instance(
            s, auction.ShapeSpec("beta_concave", 2 * s, beta=2),
            auction.ShapeSpec("linear", s))
        assert auction.count_pair_deviations(late_cliff, "le") == \
            auction.potential_count(s, 2 * s, 2)
    report("c07 value decay extremes: neighbours only vs all pairs, s in [2,50]",
           time.monotonic() - start, 30)


def test_c08_pair_count_growth_trends():
    start = time.monotonic()
    sizes = range(10, 201, 10)
    logs = []
    for s in sizes:
        inst = auction.make_instance(s, auction.ShapeSpec("linear", 2 * s),
                                     auction.ShapeSpec("linear", s))
        logs.append((math.log(s),
                     math.log(auction.count_pair_deviations(inst, "le"))))
    mean_x = sum(x for x, _ in logs) / len(logs)
    mean_y = sum(y for _, y in logs) / len(logs)
    slope = (sum((x - mean_x) * (y - mean_y) for x, y in logs)
             / sum((x - mean_x) ** 2 for x, _ in logs))
    assert 1.35 <= slope <= 1.65

    for s in sizes:
        steep_ctr = auction.make_instance(
            s, auction.ShapeSpec("linear", 2 * s),
            auction.ShapeSpec("beta_convex", s, beta=2))
        assert auction.count_pair_deviations(steep_ctr, "le") \
            <= 10 * s * math.log2(s)
        flat_then_cliff = auction.make_instance(
            s, auction.ShapeSpec("linear", 2 * s),
            auction.ShapeSpec("beta_concave", s, beta=Fraction(3, 2)))
        assert auction.count_pair_deviations(flat_then_cliff, "le") \
            >= math.comb(s // 12, 2)
    report(f"c08 growth trends: log-log slope {slope:.2f}, CTR-shape bounds",
           time.monotonic() - start, 300)


def test_c09_upper_equilibrium_two_apart_pairs():
    start = time.monotonic()
    for s in range(2, 51):
        inst = auction.make_instance(s, auction.ShapeSpec("linear", 2 * s),
                                     auction.ShapeSpec("linear", s))
        for i in range(1, s):
            assert auction.pair_deviates(inst, "ue", i, i + 2)
        assert auction.count_pair_deviations(inst, "ue") >= 2 * s - 1
    rng = random.Random(99)
    for _ in range(10):
        s = rng.randrange(2, 26)
        inst = random_auction(rng, s, 2 * s)
        for i in range(1, s):
            assert auction.pair_deviates(inst, "ue", i, i + 2)
        assert auction.count_pair_deviations(inst, "ue") >= 2 * s - 1
    report("c09 upper equilibrium: all two-apart pairs move, count >= 2s-1",
           time.monotonic() - start, 30)


def test_c10_truthful_auction_maximally_collusive():
    start = time.monotonic()
    rng = random.Random(10)
    for s in range(2, 7):
        inst = random_auction(rng, s, 2 * s)
        for r in range(1, s + 1):
            # each coalition's midpoint misreport judged by the deviation rule
            judged = judged_vcg_deviations(inst, r)
            assert auction.count_vcg_coalition_deviations(inst, r) == judged
            assert judged == (auction.potential_count(s, 2 * s, r) if r > 1 else 0)
    big = auction.make_instance(36, auction.ShapeSpec("linear", 72),
                                auction.ShapeSpec("linear", 36))
    m2 = auction.potential_count(36, 72, 2)
    assert auction.count_pair_deviations(big, "le") / m2 < 0.5
    assert auction.count_vcg_coalition_deviations(big, 2) == m2
    report("c10 all potential coalitions move truthfully; rank-by-bid far fewer",
           time.monotonic() - start, 60)


GRID_INSTANCES = (
    auction.AuctionInstance(2, (10, 6, 2), (2, 1)),
    auction.AuctionInstance(3, (12, 9, 7, 4), (8, 5, 3)),
    auction.AuctionInstance(3, (16, 13, 11, 8, Fraction(1, 8), Fraction(1, 16)),
                            (8, 5, 3)),
)


def test_c11_grid_search_agrees_with_pair_reduction():
    start = time.monotonic()
    for inst in GRID_INSTANCES:
        for eq in ("le", "ue"):
            bids = auction.equilibrium_bids(inst, eq)
            for r in range(2, inst.s + 1):
                for members in auction.iter_potential_coalitions(inst.s, inst.n, r):
                    predicted = auction.coalition_deviates(inst, eq, members)
                    witness = auction.exhaustive_bid_search(inst, bids, members,
                                                            "weak", refine=4)
                    assert predicted == (witness is not None), (eq, members)
                    strict = auction.exhaustive_bid_search(inst, bids, members,
                                                           "strict", refine=4)
                    assert strict is None, (eq, members)
    report("c11 exhaustive grid rebids = contains-a-moving-pair; no strict moves",
           time.monotonic() - start, 300)


def test_c12_randomised_reserve_certification():
    start = time.monotonic()
    square = auction.AuctionInstance(3, (6, 4, 2), (4, 2, 1))
    for q in (Fraction(1, 4), Fraction(1, 2)):
        for refine in (1, 2, 3):
            verdict = reserve.check_truthful_sse(square,
                                                 reserve.VcgStarConfig(q), refine)
            assert verdict.certified, (q, refine)
    control = reserve.check_truthful_sse(square, reserve.VcgStarConfig(0))
    assert not control.certified
    assert control.members == (0, 1)  # top two winners shade together
    spare = auction.AuctionInstance(3, (8, 6, 4, 2), (4, 2, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ContractWarning)
        verdict = reserve.check_truthful_sse(spare,
                                             reserve.VcgStarConfig(Fraction(1, 2), 16))
    assert not verdict.certified
    assert spare.n - 1 in verdict.members  # the slotless bidder carries the move
    report("c12 randomised reserve: certified at s=n, broken at s<n and q=0",
           time.monotonic() - start, 120)


def test_c13_slot_randomisation_payment_gap():
    start = time.monotonic()
    rng = random.Random(13)
    for _ in range(25):
        s = rng.randrange(2, 6)
        inst = random_auction(rng, s, rng.randrange(s + 1, 2 * s + 2))
        original = auction.vcg_payments(inst)
        for denom in (2, 4, 10):
            lam = Fraction(1, denom * inst.n)
            ext = reserve.vcg_star_lambda(inst, lam)
            head = ext.extended_ctrs[:inst.s + 1]
            assert all(a > b for a, b in zip(head, head[1:]))
            bound = reserve.lambda_payment_gap_bound(inst, lam)
            for i in range(inst.s):
                gap = abs(ext.payments[i] - original[i])
                assert gap * inst.ctrs[i] <= bound * inst.ctrs[0]
    report("c13 slot-randomised payments within v1*n*lambda, order preserved",
           time.monotonic() - start, 10)


def test_c14_reserve_witnesses_straddle_the_gap():
    start = time.monotonic()
    rng = random.Random(14)
    instances = [GRID_INSTANCES[0]] + \
        [random_auction(rng, rng.randrange(2, 7), 12) for _ in range(20)]
    for inst in instances:
        le = auction.le_bids(inst)
        for i in range(1, inst.s + 1):
            low, high = le[i - 1], inst.value(i)
            if low < high:
                witness = auction.gsp_reserve_witness(inst, le, (low + high) / 2)
                assert witness is not None and witness.case == "raise"
                assert witness.value > (low + high) / 2 > witness.bid
        ue = auction.ue_bids(inst)
        for i in range(1, inst.s + 1):
            low, high = inst.value(i), ue[i - 1]
            if low < high:
                witness = auction.gsp_reserve_witness(inst, ue, (low + high) / 2)
                assert witness is not None and witness.case == "lower"
                assert witness.value < (low + high) / 2 < witness.bid
    report("c14 any reserve inside a bid/value gap yields the right witness",
           time.monotonic() - start, 10)


def test_c15_fixed_reserve_routes_coincide():
    start = time.monotonic()
    rng = random.Random(15)
    for _ in range(1000):
        s = rng.randrange(1, 7)
        inst = random_auction(rng, s, rng.randrange(2, 2 * s + 3))
        c = Fraction(rng.randrange(0, 80 * s), rng.randrange(1, 5))
        assert reserve.reserve_vcg(inst, c, reserve.FILTERED) == \
            reserve.reserve_vcg(inst, c, reserve.CLAMPED)
    report("c15 filtered and clamped fixed-reserve routes agree exactly",
           time.monotonic() - start, 10)

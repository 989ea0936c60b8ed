import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalstab import auction, games
from coalstab.errors import BudgetExceededError, ContractError, InputError, TieError
from conftest import (classify_shape, gsp_utility, judged_vcg_deviations, pair_gain,
                      random_auction, reference_bid_grid, simulate_pair_deviation,
                      vcg_payments_recursive, verify_symmetric_ne)


@st.composite
def decreasing_rationals(draw, size):
    """`size` distinct positive rationals, largest first: free fractions, or
    multiples of one 1/q on a short range, where the pair test's knife-edge
    ties (pair gain exactly 0) are common.  The short range is cut from a
    permutation of its multiples, so it never has to reject a repeat."""
    if draw(st.booleans()):
        elements = st.fractions(min_value=Fraction(1, 12), max_value=64,
                                max_denominator=12)
        drawn = draw(st.lists(elements, min_size=size, max_size=size, unique=True))
    else:
        q = draw(st.integers(1, 12))
        picks = draw(st.permutations(range(1, 2 * size + 2)))[:size]
        drawn = [Fraction(p, q) for p in picks]
    return sorted(drawn, reverse=True)


def fraction_scan(inst, bids, members, kind, refine):
    """The grid search with one `Fraction` GSP outcome per candidate: the
    oracle of `exhaustive_bid_search`'s integer scan.  It writes each joint
    rebid into a copy of the profile and keeps only profiles whose n bids
    are pairwise distinct, without `games.rebids`."""
    bids = tuple(Fraction(b) for b in bids)
    indices = [rank - 1 for rank in members]
    base = auction.gsp_outcome(inst, bids).utilities
    grid = auction.bid_grid(inst, bids, refine)

    def candidates():
        for joint in itertools.product(grid, repeat=len(indices)):
            work = list(bids)
            for i, b in zip(indices, joint):
                work[i] = b
            if len(set(work)) == inst.n:
                yield tuple(work), auction.gsp_outcome(inst, work).utilities

    found = games.first_deviation(candidates(), indices, [base[i] for i in indices],
                                  lambda i, candidate: candidate[1][i], kind)
    return None if found is None else found[0]


@pytest.fixture(scope="module")
def tiny():
    return auction.AuctionInstance(2, (10, 6, 2), (2, 1))


class TestExactIntake:
    def test_rationals_are_kept_exactly(self):
        inst = auction.AuctionInstance(2, ("10", "13/2", 2), (Fraction(5, 2), "0.5"))
        assert inst.values == (10, Fraction(13, 2), 2)
        assert inst.ctrs == (Fraction(5, 2), Fraction(1, 2))
        assert all(type(v) is Fraction for v in inst.values + inst.ctrs)

    @pytest.mark.parametrize("slot_count, values, ctrs", [
        (2, (0.3, 0.1, 0.05), (2, 1)), (2, (10, 6, 2), (2.0, 1)),
        (2, (10, 6, True), (2, 1)), (2, ("x", 6, 2), (2, 1)),
        (2, (10, 6, None), (2, 1)), (2, (10, 6, "1/0"), (2, 1)),
        (2.0, (10, 6, 2), (2, 1)), (True, (10, 6), (2,)), ("2", (10, 6, 2), (2, 1)),
    ])
    def test_anything_else_is_an_input_error(self, slot_count, values, ctrs):
        with pytest.raises(InputError):
            auction.AuctionInstance(slot_count, values, ctrs)

    @pytest.mark.parametrize("call", [
        lambda inst: auction.vcg_payments(inst, (10, 6, 0.5)),
        lambda inst: auction.gsp_outcome(inst, (10, 6, 0.5)),
        lambda inst: auction.gsp_outcome(inst, (10, True, 2)),
        lambda inst: auction.bid_grid(inst, (10, 6, "x")),
        lambda inst: auction.exhaustive_bid_search(inst, (10, 6, 0.5), (1, 2)),
        lambda inst: auction.gsp_reserve_witness(inst, (10, 6, 0.5), 3),
        lambda inst: auction.gsp_reserve_witness(inst, (10, 6, 2), 0.5),
        lambda inst: auction.ShapeSpec("beta_convex", 4, beta=2.0),
        lambda inst: auction.ShapeSpec("linear", 4, high=True),
        lambda inst: auction.ShapeSpec("linear", 4, high=8, low="x"),
        lambda inst: auction.ShapeSpec("linear", 4.0),
    ], ids=["vcg_payments", "gsp_outcome-float", "gsp_outcome-bool", "bid_grid",
            "exhaustive_bid_search", "gsp_reserve_witness-bids",
            "gsp_reserve_witness-c", "ShapeSpec-beta", "ShapeSpec-high",
            "ShapeSpec-low", "ShapeSpec-length"])
    def test_every_number_is_exact(self, tiny, call):
        with pytest.raises(InputError):
            call(tiny)

    def test_rational_text_is_accepted(self, tiny):
        assert auction.gsp_outcome(tiny, ("10", "6", "1/2")).payments == \
            (6, Fraction(1, 2))
        assert auction.ShapeSpec("beta_convex", 4, beta="3/2").beta == Fraction(3, 2)


class TestPayments:
    def test_hand_evaluated_prices(self, tiny):
        assert auction.vcg_payments(tiny) == (4, 2)

    def test_last_winner_free_when_no_competition(self):
        low = auction.AuctionInstance(2, (9, 5), (3, 1))
        assert auction.vcg_payments(low)[-1] == 0

    def test_kernel_reads_zero_past_short_value_lists(self):
        # s = 3 with tied lower CTRs and two values: v_3 = v_4 = 0
        assert auction.welfare_prices((4, 2, 2), (9, 7)) == (Fraction(7, 2), 0)
        assert auction.welfare_prices((4, 2, 2), ()) == ()

    def test_recursion_equals_direct_form(self):
        # n runs from 2 to 2s+2, so n <= s (fewer bidders than slots) is drawn
        rng = random.Random(1)
        for _ in range(100):
            s = rng.randrange(1, 12)
            inst = random_auction(rng, s, rng.randrange(2, 2 * s + 3))
            assert auction.vcg_payments(inst) == vcg_payments_recursive(inst)

    def test_misreports_change_prices_not_values(self, tiny):
        shaded = auction.vcg_payments(tiny, (10, 6, 1))
        assert shaded == (Fraction(7, 2), 1)


class TestBoundaryEquilibria:
    def test_lower_bids(self, tiny):
        assert auction.le_bids(tiny) == (10, 4, 2)

    def test_upper_bids(self, tiny):
        assert auction.ue_bids(tiny) == (10, 8, 6)

    def test_lower_replicates_truthful_prices(self):
        rng = random.Random(2)
        for _ in range(50):
            s = rng.randrange(1, 10)
            inst = random_auction(rng, s, 2 * s)
            outcome = auction.gsp_outcome(inst, auction.le_bids(inst))
            assert outcome.payments == auction.vcg_payments(inst)

    def test_single_slot_lower_bid_vanishes_with_worthless_runner_up(self):
        inst = auction.AuctionInstance(1, (7, Fraction(1, 10**6)), (3,))
        bids = auction.le_bids(inst)
        assert bids[1] == Fraction(1, 10**6)

    def test_both_boundaries_are_envy_free(self):
        rng = random.Random(3)
        for _ in range(30):
            s = rng.randrange(1, 9)
            inst = random_auction(rng, s, rng.randrange(s + 1, 2 * s + 2))
            assert verify_symmetric_ne(inst, auction.le_bids(inst))
            assert verify_symmetric_ne(inst, auction.ue_bids(inst))

    def test_overbidding_breaks_envy_freeness(self, tiny):
        assert not verify_symmetric_ne(tiny, (10, 11, 2))

    def test_bids_strictly_decrease(self):
        rng = random.Random(4)
        for _ in range(30):
            s = rng.randrange(1, 8)
            inst = random_auction(rng, s, rng.randrange(s + 2, 2 * s + 4))
            for bids in (auction.le_bids(inst), auction.ue_bids(inst)):
                assert all(a > b for a, b in zip(bids, bids[1:]))


class TestGspOutcome:
    def test_lower_equilibrium_utilities(self, tiny):
        outcome = auction.gsp_outcome(tiny, auction.le_bids(tiny))
        assert outcome.utilities == (12, 4, 0)
        assert outcome.revenue == 10

    def test_truthful_bids_sort_by_value(self, tiny):
        outcome = auction.gsp_outcome(tiny, tiny.values)
        assert outcome.ranking == (0, 1, 2)

    def test_allocation_follows_bids_not_values(self, tiny):
        outcome = auction.gsp_outcome(tiny, (6, 10, 2))
        assert outcome.ranking == (1, 0, 2)

    def test_ties_rejected(self, tiny):
        with pytest.raises(TieError):
            auction.gsp_outcome(tiny, (10, 10, 2))


class TestPairPredicates:
    def test_neighbours_always_deviate(self):
        rng = random.Random(5)
        for _ in range(20):
            s = rng.randrange(2, 10)
            inst = random_auction(rng, s, 2 * s)
            for k in range(1, s + 1):
                assert auction.pair_deviates(inst, "le", k, k + 1)
                assert auction.pair_deviates(inst, "ue", k, k + 1)

    def test_rapidly_decaying_values_allow_only_neighbours(self):
        for s in range(2, 12):
            inst = auction.make_instance(
                s, auction.ShapeSpec("beta_convex", 2 * s, beta=2),
                auction.ShapeSpec("linear", s))
            for k in range(1, s + 1):
                for j in range(k + 2, s + 2):
                    assert not auction.pair_deviates(inst, "le", k, j)

    def test_delta_formula_equals_simulation(self):
        rng = random.Random(6)
        for _ in range(30):
            s = rng.randrange(2, 10)
            inst = random_auction(rng, s, s + 1)
            outcome = auction.gsp_outcome(inst, auction.le_bids(inst))
            for k in range(1, s + 1):
                for j in range(k + 1, s + 2):
                    before = outcome.utilities[k - 1]
                    after = simulate_pair_deviation(inst, "le", k, j)
                    assert pair_gain(inst, "le", k, j) == after - before

    @pytest.fixture
    def six_bidders(self):
        # n = 2s, so bidder s+2 = 5 bids below bidder s+1 = 4
        return auction.make_instance(3, auction.ShapeSpec("linear", 6),
                                     auction.ShapeSpec("linear", 3))

    def test_rank_s_plus_2_blocks_the_pair_move(self, six_bidders):
        # bidder 4 cannot shade below bidder 5's bid, so bidder 2 pays it
        bids = auction.le_bids(six_bidders)
        before = auction.gsp_outcome(six_bidders, bids).utilities[1]
        assert simulate_pair_deviation(six_bidders, "le", 2, 4) == before == 3
        assert auction.exhaustive_bid_search(six_bidders, bids, (2, 4), "weak", 4) is None

    @pytest.mark.xfail(strict=True, reason="the thresholds overcount when n > s+1: "
                       "they price the (k, s+1) move as if bidder s+1 could shade "
                       "to 0, so pair (2, 4) deviates although its gain is 0")
    def test_delta_formula_equals_simulation_past_rank_s_plus_1(self, six_bidders):
        before = auction.gsp_outcome(six_bidders, auction.le_bids(six_bidders)).utilities[1]
        after = simulate_pair_deviation(six_bidders, "le", 2, 4)
        assert auction.pair_deviates(six_bidders, "le", 2, 4) == (after > before)

    def test_two_apart_pairs_deviate_at_upper(self):
        rng = random.Random(7)
        for _ in range(20):
            s = rng.randrange(3, 10)
            inst = random_auction(rng, s, 2 * s)
            for k in range(1, s):
                assert auction.pair_deviates(inst, "ue", k, k + 2)

    def test_upper_predicate_matches_simulation(self):
        rng = random.Random(8)
        for _ in range(20):
            s = rng.randrange(2, 9)
            inst = random_auction(rng, s, s + 1)
            outcome = auction.gsp_outcome(inst, auction.ue_bids(inst))
            for k in range(1, s + 1):
                for j in range(k + 2, s + 2):
                    gained = simulate_pair_deviation(inst, "ue", k, j) \
                        > outcome.utilities[k - 1]
                    assert auction.pair_deviates(inst, "ue", k, j) == gained

    def test_pair_rank_validation(self, tiny):
        with pytest.raises(InputError):
            auction.pair_deviates(tiny, "le", 2, 2)
        with pytest.raises(InputError):
            auction.pair_deviates(tiny, "le", 1, 5)

    @pytest.mark.parametrize("eq", [auction.LE, auction.UE])
    @pytest.mark.parametrize("values", [(6, 4, 2), (6, 4)], ids=["n=s", "n<s"])
    def test_predicates_need_a_loser(self, eq, values):
        # with no loser there is no equilibrium to judge
        inst = auction.AuctionInstance(3, values, (4, 2, 1))
        with pytest.raises(InputError, match="more bidders than slots"):
            auction.pair_deviates(inst, eq, 1, 2)
        with pytest.raises(InputError, match="more bidders than slots"):
            auction.coalition_deviates(inst, eq, (1, 2))

    def test_context_weights_average_inside_value_range(self):
        # the CTR-difference weights (x_{i-1}-x_i)/x_j, i > j, sum to 1, and
        # their average of the values below rank j is rank j's welfare price
        rng = random.Random(9)
        for _ in range(20):
            s = rng.randrange(3, 9)
            inst = random_auction(rng, s, 2 * s)
            prices = auction.vcg_payments(inst)
            for j in (3, s):
                assert inst.value(s + 1) <= prices[j - 1] <= inst.value(j + 1)


class TestPairCounts:
    def test_count_between_proved_bounds(self):
        rng = random.Random(10)
        for _ in range(20):
            s = rng.randrange(2, 12)
            inst = random_auction(rng, s, 2 * s)
            count = auction.count_pair_deviations(inst, "le")
            assert s <= count <= auction.potential_count(s, 2 * s, 2)
            assert auction.count_pair_deviations(inst, "ue") >= 2 * s - 1

    def test_fast_counter_agrees_with_predicates(self):
        rng = random.Random(11)
        for _ in range(10):
            s = rng.randrange(2, 9)
            inst = random_auction(rng, s, 2 * s)
            for eq in ("le", "ue"):
                direct = [(k, j)
                          for k in range(1, s + 1)
                          for j in range(k + 1, s + 2)
                          if auction.pair_deviates(inst, eq, k, j)]
                assert direct == auction.deviating_pairs(inst, eq)

    def test_shape_extremes(self):
        for s in (3, 7, 12):
            convex = auction.make_instance(
                s, auction.ShapeSpec("beta_convex", 2 * s, beta=2),
                auction.ShapeSpec("linear", s))
            concave = auction.make_instance(
                s, auction.ShapeSpec("beta_concave", 2 * s, beta=2),
                auction.ShapeSpec("linear", s))
            linear = auction.make_instance(
                s, auction.ShapeSpec("linear", 2 * s),
                auction.ShapeSpec("linear", s))
            lo = auction.count_pair_deviations(convex, "le")
            mid = auction.count_pair_deviations(linear, "le")
            hi = auction.count_pair_deviations(concave, "le")
            assert lo == s
            assert hi == auction.potential_count(s, 2 * s, 2)
            assert lo <= mid <= hi

    @settings(max_examples=300)
    @given(data=st.data(), eq=st.sampled_from((auction.LE, auction.UE)))
    def test_integer_kernel_matches_fraction_oracle(self, data, eq):
        s = data.draw(st.integers(1, 12), label="s")
        n = data.draw(st.integers(s + 1, 2 * s + 2), label="n")
        inst = auction.AuctionInstance(s, data.draw(decreasing_rationals(n)),
                                       data.draw(decreasing_rationals(s)))
        pairs = [(k, j) for k in range(1, s + 1) for j in range(k + 1, s + 2)]
        direct = [(k, j) for k, j in pairs
                  if j == k + 1 or pair_gain(inst, eq, k, j) > 0]
        assert [p for p in pairs if auction.pair_deviates(inst, eq, *p)] == direct
        assert auction.deviating_pairs(inst, eq) == direct
        assert auction.count_pair_deviations(inst, eq) == len(direct)
        moving = set(direct)
        brute = sum(
            any(p in moving for p in itertools.combinations(
                [m for m in members if m <= s + 1], 2))
            for members in auction.iter_potential_coalitions(s, n, 3))
        assert auction.count_coalition_deviations(inst, eq, 3) == brute

    def test_counts_ignore_far_losers(self):
        base = auction.AuctionInstance(3, (40, 30, 22, 15, 9, 5), (9, 6, 2))
        perturbed = auction.AuctionInstance(3, (40, 30, 22, 15, 7, 3), (9, 6, 2))
        for eq in ("le", "ue"):
            assert auction.deviating_pairs(base, eq) == \
                auction.deviating_pairs(perturbed, eq)


class TestPotentialCoalitions:
    def test_count_small_case(self):
        assert auction.potential_count(3, 6, 2) == 6

    def test_short_loser_block_pinned(self):
        # s = 3, n = 4: only bidder 4 loses, so no block of two losers exists
        assert [auction.potential_count(3, 4, r) for r in (1, 2, 3, 4)] == [3, 6, 4, 1]

    def test_singletons_are_the_winners(self):
        for s in (1, 4, 9):
            assert auction.potential_count(s, 2 * s, 1) == s
            assert auction.potential_count(s, 2, 1) == min(s, 2)

    @pytest.mark.parametrize("r", [0, -1])
    def test_size_must_be_positive(self, r):
        with pytest.raises(InputError):
            auction.potential_count(3, 4, r)

    def test_no_coalition_outgrows_the_bidders(self):
        assert auction.potential_count(3, 4, 5) == 0
        assert list(auction.iter_potential_coalitions(3, 4, 5)) == []

    @settings(max_examples=300)
    @given(data=st.data())
    def test_count_is_the_enumeration_length(self, data):
        s = data.draw(st.integers(1, 8), label="s")
        n = data.draw(st.integers(2, 2 * s + 2), label="n")
        r = data.draw(st.integers(1, n), label="r")
        listed = list(auction.iter_potential_coalitions(s, n, r))
        assert auction.potential_count(s, n, r) == len(listed)
        assert all(auction.is_potential_coalition(c, s, n) for c in listed)

    def test_predicate_requires_consecutive_loser_block(self):
        assert auction.is_potential_coalition((1, 4), 3, 8)
        assert auction.is_potential_coalition((1, 4, 5), 3, 8)
        assert not auction.is_potential_coalition((1, 5), 3, 8)
        assert not auction.is_potential_coalition((4, 5), 3, 8)

    def test_enumeration_matches_formula_and_predicate(self):
        for s, n, r in [(3, 8, 2), (3, 8, 3), (4, 9, 3), (5, 12, 4)]:
            listed = list(auction.iter_potential_coalitions(s, n, r))
            assert len(listed) == auction.potential_count(s, n, r)
            assert len(set(listed)) == len(listed)
            scan = [c for c in itertools.combinations(range(1, n + 1), r)
                    if auction.is_potential_coalition(c, s, n)]
            assert sorted(listed) == scan


class TestTruthfulCoalitionMoves:
    def test_every_potential_coalition_verifies(self):
        rng = random.Random(12)
        for s in (2, 3, 4):
            for n in sorted({2, s, s + 1, 2 * s}):
                inst = random_auction(rng, s, n)
                for r in range(1, n + 1):
                    judged = judged_vcg_deviations(inst, r)
                    assert auction.count_vcg_coalition_deviations(inst, r) == judged
                    assert judged == (auction.potential_count(s, n, r) if r > 1 else 0)

    def test_full_winner_coalition_gains_except_cheapest(self):
        inst = auction.AuctionInstance(3, (20, 15, 9, 4, 2, 1), (7, 4, 2))
        reports = auction.vcg_coalition_deviation(inst, (1, 2, 3))
        before = auction.vcg_payments(inst)
        after = auction.vcg_payments(inst, reports)
        assert after[0] < before[0] and after[1] < before[1]
        assert after[2] == before[2]

    def test_winner_plus_first_loser_gains(self):
        inst = auction.AuctionInstance(3, (20, 15, 9, 4, 2, 1), (7, 4, 2))
        reports = auction.vcg_coalition_deviation(inst, (2, 4))
        after = auction.vcg_payments(inst, reports)
        assert after[1] < auction.vcg_payments(inst)[1]

    def test_non_potential_coalition_rejected(self):
        inst = auction.AuctionInstance(3, (20, 15, 9, 4, 2, 1), (7, 4, 2))
        with pytest.raises(ContractError):
            auction.vcg_coalition_deviation(inst, (1, 5))

    @pytest.mark.parametrize("members", [(1,), (3,), (4,)])
    def test_single_bidder_rejected(self, members):
        # a coalition of one never gains in the truthful auction
        inst = auction.AuctionInstance(3, (20, 15, 9, 4, 2, 1), (7, 4, 2))
        with pytest.raises(ContractError):
            auction.vcg_coalition_deviation(inst, members)

    def test_single_bidders_count_zero(self):
        inst = auction.AuctionInstance(2, (10, 6, 2), (2, 1))
        assert auction.count_vcg_coalition_deviations(inst, 1) == 0


class TestCoalitionReduction:
    def test_sets_with_neighbours_always_move(self):
        rng = random.Random(13)
        inst = random_auction(rng, 4, 8)
        assert auction.coalition_deviates(inst, "le", (2, 3))
        assert auction.coalition_deviates(inst, "le", (1, 2, 5))

    def test_rapid_decay_reduces_to_neighbour_membership(self):
        inst = auction.make_instance(
            4, auction.ShapeSpec("beta_convex", 8, beta=2),
            auction.ShapeSpec("linear", 4))
        for r in (2, 3):
            for members in auction.iter_potential_coalitions(4, 8, r):
                eligible = [m for m in members if m <= 5]
                has_neighbours = any(b - a == 1
                                     for a, b in itertools.combinations(eligible, 2))
                assert auction.coalition_deviates(inst, "le", members) == has_neighbours

    def test_bad_equilibrium_rejected(self, tiny):
        with pytest.raises(InputError):
            auction.coalition_deviates(tiny, "vcg", (1, 2))

    @pytest.mark.parametrize("call", [
        lambda inst, m: auction.is_potential_coalition(m, inst.s, inst.n),
        lambda inst, m: auction.coalition_deviates(inst, auction.LE, m),
        lambda inst, m: auction.exhaustive_bid_search(inst, auction.le_bids(inst), m),
    ], ids=["is_potential_coalition", "coalition_deviates", "exhaustive_bid_search"])
    def test_non_integer_ranks_rejected(self, tiny, call):
        with pytest.raises(InputError):
            call(tiny, (1.5, 2))

    @pytest.mark.parametrize("eq", [auction.LE, auction.UE])
    def test_coalition_counters_charge_the_budget(self, eq, monkeypatch):
        def count(inst, r):
            return auction.count_coalition_deviations(inst, eq, r)

        inst = random_auction(random.Random(14), 4, 8)
        m3 = auction.potential_count(4, 8, 3)
        monkeypatch.setenv("COALSTAB_BUDGET", str(m3 - 1))
        with pytest.raises(BudgetExceededError) as info:
            count(inst, 3)
        assert info.value.required == m3
        assert str(info.value) == (f"search space of {m3} potential coalitions "
                                   f"exceeds budget {m3 - 1}")
        monkeypatch.setenv("COALSTAB_BUDGET", str(m3))
        assert 0 < count(inst, 3) <= m3

    def test_truthful_count_charges_no_budget(self, monkeypatch):
        # the count is proven, not searched
        inst = random_auction(random.Random(14), 4, 8)
        monkeypatch.setenv("COALSTAB_BUDGET", "0")
        assert auction.count_vcg_coalition_deviations(inst, 3) == \
            auction.potential_count(4, 8, 3)

    def test_neighbouring_members_decide_like_all_pairs(self):
        rng = random.Random(15)
        for _ in range(40):
            s = rng.randrange(1, 10)
            n = rng.randrange(s + 1, 2 * s + 3)
            inst = random_auction(rng, s, n)
            for eq in (auction.LE, auction.UE):
                moving = set(auction.deviating_pairs(inst, eq))
                for r in range(2, min(n, 5) + 1):
                    for members in auction.iter_potential_coalitions(s, n, r):
                        eligible = [m for m in members if m <= s + 1]
                        all_pairs = any(p in moving for p in
                                        itertools.combinations(eligible, 2))
                        assert auction.coalition_deviates(inst, eq, members) == all_pairs

    def test_rank_by_bid_auction_is_harder_to_collude_in(self):
        inst = auction.make_instance(8, auction.ShapeSpec("linear", 16),
                                     auction.ShapeSpec("linear", 8))
        for r in (2, 3):
            gsp = auction.count_coalition_deviations(inst, "le", r)
            truthful = auction.count_vcg_coalition_deviations(inst, r)
            assert gsp < truthful == auction.potential_count(8, 16, r)


SCAN_CAP = 15_000


class TestGridSearch:
    """s=2, LE, coalition (1, 3): bidder 3 shades below 1/2 and bidder 1
    takes slot 2 at that price; the grid's lowest point is 43/8."""

    @pytest.fixture()
    def low_bid(self):
        return auction.AuctionInstance(2, (108, 73, 43), (62, 28))

    def test_low_bid_deviation_is_real(self, low_bid):
        assert auction.coalition_deviates(low_bid, auction.LE, (1, 3))
        bids = auction.le_bids(low_bid)
        base = auction.gsp_outcome(low_bid, bids).utilities
        moved = auction.gsp_outcome(low_bid, (50, bids[1], Fraction(1, 3))).utilities
        assert moved[0] > base[0] and moved[2] == base[2]

    def test_budget_caps_the_joint_grid(self, low_bid, monkeypatch):
        bids = auction.le_bids(low_bid)
        grid = auction.bid_grid(low_bid, bids, 4)
        monkeypatch.setenv("COALSTAB_BUDGET", str(len(grid) ** 2 - 1))
        with pytest.raises(BudgetExceededError) as info:
            auction.exhaustive_bid_search(low_bid, bids, (1, 2), "weak", 4)
        assert info.value.required == len(grid) ** 2
        monkeypatch.setenv("COALSTAB_BUDGET", str(len(grid) ** 2))
        assert auction.exhaustive_bid_search(low_bid, bids, (1, 2), "weak", 4)

    def test_first_weak_witness_is_pinned(self):
        # the first witnesses on c11's first instance, one per equilibrium;
        # any change to the scan order or the tie filter moves them
        inst = auction.AuctionInstance(2, (10, 6, 2), (2, 1))
        for eq, members, witness in ((auction.LE, (1, 2), ("5/2", "9/4", "2")),
                                     (auction.UE, (1, 3), ("3/2", "8", "3/4"))):
            bids = auction.equilibrium_bids(inst, eq)
            found = auction.exhaustive_bid_search(inst, bids, members, games.WEAK, 4)
            assert found == tuple(Fraction(w) for w in witness), eq

    def test_bad_kind_rejected_before_the_budget_check(self, low_bid, monkeypatch):
        monkeypatch.setenv("COALSTAB_BUDGET", "1")
        with pytest.raises(InputError):
            auction.exhaustive_bid_search(low_bid, auction.le_bids(low_bid), (1, 2),
                                          "sideways", 4)

    @pytest.mark.parametrize("members", [(0, 2), (2, 1), (1, 1), (1, 4)],
                             ids=["rank-zero", "unsorted", "duplicate", "past-n"])
    def test_bad_members_rejected_before_the_budget_check(self, tiny, members,
                                                          monkeypatch):
        # bidder 0 must not wrap round to the last bidder, and n+1 must not
        # surface as an IndexError
        monkeypatch.setenv("COALSTAB_BUDGET", "1")
        with pytest.raises(InputError):
            auction.exhaustive_bid_search(tiny, auction.le_bids(tiny), members,
                                          "weak", 4)

    def test_negative_bids_rejected(self, tiny):
        # the integer scan charges 0 when no bid is below, as GSP does only
        # for nonnegative bids
        with pytest.raises(InputError):
            auction.exhaustive_bid_search(tiny, (10, 4, -1), (1, 2), "weak", 1)

    @settings(max_examples=120)
    @given(data=st.data(), kind=st.sampled_from((games.WEAK, games.STRICT)))
    def test_integer_scan_matches_fraction_scan(self, data, kind):
        s = data.draw(st.integers(1, 3), label="s")
        n = data.draw(st.integers(2, 2 * s + 2), label="n")
        inst = auction.AuctionInstance(s, data.draw(decreasing_rationals(n)),
                                       data.draw(decreasing_rationals(s)))
        if n <= s or data.draw(st.booleans(), label="off-equilibrium"):
            bids = list(data.draw(st.permutations(data.draw(decreasing_rationals(n))),
                                  label="bids"))
            if data.draw(st.booleans(), label="zero bid"):
                bids[bids.index(min(bids))] = Fraction(0)
        else:
            bids = auction.equilibrium_bids(
                inst, data.draw(st.sampled_from((auction.LE, auction.UE)), label="eq"))
        size = data.draw(st.integers(1, min(4, n)), label="size")

        # the Fraction oracle judges up to grid^size candidates, one
        # `gsp_outcome` each.  Every size up to 3 at refine 1..2 is drawn
        # whatever it costs; SCAN_CAP only limits the wider part of the
        # range, size 4 and refine 3, to what the oracle judges in time
        def scan(refine):
            return len(auction.bid_grid(inst, bids, refine)) ** size

        if size == 4 and scan(1) > SCAN_CAP:
            size = 3
        refine = data.draw(st.integers(1, max(
            [2 if size <= 3 else 1] + [t for t in (1, 2, 3) if scan(t) <= SCAN_CAP])),
            label="refine")
        members = data.draw(st.sampled_from(
            list(itertools.combinations(range(1, n + 1), size))), label="members")
        assert (auction.exhaustive_bid_search(inst, bids, members, kind, refine)
                == fraction_scan(inst, bids, members, kind, refine))

    @pytest.mark.parametrize("s, values, ctrs, bids, members, witness", [
        # member 2 sits exactly at its base on the prefix (13/2, 19/4)
        (2, (12, 10, 3, 2), (4, 2), (12, "13/2", 3, 2), (1, 2, 4),
         ("13/2", "19/4", 3, 1)),
        # bidder 4 (base 0) bidding 11/2 above its value 2 loses money
        # against the outsiders alone, and is pushed past the slot by bidder 1
        (1, (12, 10, 8, 2), (3,), (12, 4, 7, 8), (1, 3, 4), (7, 4, 2, "11/2")),
    ], ids=["prefix-at-base", "negative-alone-base-zero"])
    def test_pruning_keeps_knife_edge_witnesses(self, s, values, ctrs, bids, members,
                                                witness):
        inst = auction.AuctionInstance(s, values, ctrs)
        bids = tuple(Fraction(b) for b in bids)
        found = auction.exhaustive_bid_search(inst, bids, members, games.WEAK, 1)
        assert found == tuple(Fraction(w) for w in witness)
        assert found == fraction_scan(inst, bids, members, games.WEAK, 1)

    def test_bid_grid_matches_fraction_reference(self, tiny):
        rng = random.Random(47)
        zeros = 0
        for _ in range(200):
            n = rng.randrange(1, 8)
            den = rng.randrange(1, 9)
            bids = [Fraction(rng.randrange(1, 60), den) * Fraction(1, rng.randrange(1, 4))
                    for _ in range(n)]
            if rng.random() < 0.25:
                bids.append(Fraction(0))
                zeros += 1
            refine = rng.randrange(1, 5)
            assert auction.bid_grid(tiny, bids, refine) == reference_bid_grid(bids, refine)
        assert zeros >= 20

    @settings(max_examples=100)
    @given(ctrs=decreasing_rationals(3), value=st.fractions(0, 64, max_denominator=12),
           bids=st.lists(st.fractions(0, 64, max_denominator=12), min_size=1,
                         max_size=8, unique=True),
           split=st.integers(0, 8))
    def test_added_bids_never_lift_a_utility_above_its_bound(self, ctrs, value,
                                                            bids, split):
        # the bound the grid search prunes by: against any superset of
        # `others`, a bidder gets at most max(0, its utility against `others`)
        bid, rest = bids[0], bids[1:]
        others, added = rest[:split], rest[split:]
        before = gsp_utility(value, bid, others, ctrs)
        assert gsp_utility(value, bid, others + added, ctrs) <= max(0, before)

    def test_gsp_utility_matches_gsp_outcome(self):
        rng = random.Random(53)
        for _ in range(100):
            s = rng.randrange(1, 5)
            inst = random_auction(rng, s, rng.randrange(2, 2 * s + 3))
            bids = [Fraction(b, 3) for b in rng.sample(range(0, 150 * inst.n), inst.n)]
            utilities = auction.gsp_outcome(inst, bids).utilities
            for i in range(inst.n):
                assert utilities[i] == gsp_utility(
                    inst.values[i], bids[i], bids[:i] + bids[i + 1:], inst.ctrs)

    @pytest.fixture()
    def ue_undercount(self):
        return auction.AuctionInstance(4, (217, 179, 133, 94, 67), (137, 92, 58, 43))

    @pytest.mark.xfail(strict=True, reason="the thresholds price only the move in "
                       "which k takes slot j-1; here bidder 4 drops below bidder 5 "
                       "and bidder 1 takes slot 4 at bidder 4's shaded bid")
    def test_pair_rule_sees_the_ue_undercount_deviation(self, ue_undercount):
        assert auction.coalition_deviates(ue_undercount, auction.UE, (1, 4))

    def test_ue_undercount_witness_is_a_real_weak_deviation(self, ue_undercount):
        # the first witness, found through the pruned scan, checked on
        # `Fraction`s: bidder 1 gains slot 4, bidder 4 stays at utility 0
        bids = auction.ue_bids(ue_undercount)
        witness = auction.exhaustive_bid_search(ue_undercount, bids, (1, 4),
                                                games.WEAK, 4)
        assert witness == (Fraction(47, 2), *bids[1:3], Fraction(47, 4), bids[4])
        base = auction.gsp_outcome(ue_undercount, bids).utilities
        moved = auction.gsp_outcome(ue_undercount, witness).utilities
        assert moved[0] > base[0] and moved[3] == base[3] == 0

    @pytest.mark.xfail(strict=True, reason="bid_grid's lowest point is 43/8; "
                       "the deviation needs bidder 3 below 1/2")
    def test_grid_finds_low_bid_deviation(self, low_bid):
        bids = auction.le_bids(low_bid)
        assert auction.exhaustive_bid_search(low_bid, bids, (1, 3), "weak",
                                             refine=4) is not None


class TestShapes:
    def test_linear_is_both_convex_and_concave(self):
        info = classify_shape(auction.make_shape(
            auction.ShapeSpec("linear", 6)))
        assert info.is_convex and info.is_concave
        assert info.kind == "linear"

    def test_geometric_halving_certifies_beta_two(self):
        vec = tuple(Fraction(1, 2 ** i) for i in range(6))
        info = classify_shape(vec)
        assert info.is_convex and not info.is_concave
        assert info.convex_beta == 2

    def test_small_example_vector(self):
        info = classify_shape((4, 2, 1))
        assert info.convex_beta == 2
        assert info.kind == "convex"

    def test_generated_shapes_satisfy_their_own_inequalities(self):
        for kind, beta in [("linear", None), ("convex", None), ("concave", None),
                           ("beta_convex", Fraction(2)),
                           ("beta_concave", Fraction(3, 2))]:
            vec = auction.make_shape(auction.ShapeSpec(kind, 9, beta))
            info = classify_shape(vec)
            if kind in ("linear", "convex", "beta_convex"):
                assert info.is_convex
            if kind in ("linear", "concave", "beta_concave"):
                assert info.is_concave
            if kind == "beta_convex":
                assert info.convex_beta >= beta
            if kind == "beta_concave":
                assert info.concave_beta >= beta

    @pytest.mark.parametrize("kind, beta, vector", [
        ("convex", None, ("25/12", "19/12", "5/4", "1")),
        ("concave", None, ("61/12", "29/6", "9/2", "4")),
        ("beta_convex", 2, ("8", "4", "2", "1")),
        ("beta_concave", 2, ("23", "22", "20", "16")),
        ("beta_concave", Fraction(3, 2), ("157/16", "141/16", "117/16", "81/16")),
    ])
    def test_exact_length_four_vectors(self, kind, beta, vector):
        assert auction.make_shape(auction.ShapeSpec(kind, 4, beta)) == tuple(
            map(Fraction, vector))

    def test_make_instance_takes_its_lengths_from_the_specs(self):
        inst = auction.make_instance(3, auction.ShapeSpec("linear", 5),
                                     auction.ShapeSpec("linear", 3))
        assert inst.n == 5
        with pytest.raises(InputError):
            auction.make_instance(3, auction.ShapeSpec("linear", 6),
                                  auction.ShapeSpec("linear", 4))

    def test_infeasible_specs_rejected(self):
        with pytest.raises(InputError):
            auction.ShapeSpec("beta_convex", 5)  # missing beta
        with pytest.raises(InputError):
            auction.make_shape(auction.ShapeSpec("linear", 5, high=1, low=2))
        with pytest.raises(InputError):
            auction.ShapeSpec("spiky", 5)


class TestReserveWitness:
    def test_low_bidder_would_raise(self, tiny):
        witness = auction.gsp_reserve_witness(tiny, auction.le_bids(tiny), 5)
        assert witness.bidder_rank == 2 and witness.case == "raise"

    def test_high_bidder_would_lower(self, tiny):
        witness = auction.gsp_reserve_witness(tiny, auction.ue_bids(tiny), 7)
        assert witness.bidder_rank == 2 and witness.case == "lower"

    def test_zero_reserve_binds_nobody(self, tiny):
        assert auction.gsp_reserve_witness(tiny, auction.le_bids(tiny), 0) is None

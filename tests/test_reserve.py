import itertools
import math
import random
import warnings
from fractions import Fraction

import pytest

from coalstab import auction, reserve
from coalstab.errors import BudgetExceededError, ContractWarning, InputError
from conftest import brute_force_sse, random_auction, reference_misreport_grid


@pytest.fixture(scope="module")
def tiny():
    return auction.AuctionInstance(2, (10, 6, 2), (2, 1))


@pytest.fixture(scope="module")
def square():
    # as many slots as bidders: the regime where truth-telling resists groups
    return auction.AuctionInstance(3, (6, 4, 2), (4, 2, 1))


class TestFixedReserve:
    def test_zero_reserve_is_plain_auction(self, tiny):
        for mode in (reserve.FILTERED, reserve.CLAMPED):
            out = reserve.reserve_vcg(tiny, 0, mode)
            assert out.payments == auction.vcg_payments(tiny)
            assert out.allocation == (0, 1)

    def test_reserve_above_every_report_clears_nothing(self, tiny):
        out = reserve.reserve_vcg(tiny, 100, reserve.CLAMPED)
        assert out.allocation == () and out.payments == ()
        assert set(out.utilities) == {0}

    def test_both_routes_agree_on_worked_example(self, tiny):
        filtered = reserve.reserve_vcg(tiny, 3, reserve.FILTERED)
        clamped = reserve.reserve_vcg(tiny, 3, reserve.CLAMPED)
        assert filtered == clamped
        assert filtered.payments == (Fraction(9, 2), 3)
        assert filtered.allocation == (0, 1)  # the low bidder is filtered out

    def test_routes_agree_on_random_inputs(self):
        rng = random.Random(21)
        for _ in range(200):
            s = rng.randrange(1, 7)
            inst = random_auction(rng, s, rng.randrange(2, 2 * s + 3))
            c = Fraction(rng.randrange(0, 60 * s), rng.randrange(1, 4))
            assert reserve.reserve_vcg(inst, c, reserve.FILTERED) == \
                reserve.reserve_vcg(inst, c, reserve.CLAMPED)

    def test_payments_never_fall_below_the_reserve(self):
        rng = random.Random(22)
        for _ in range(50):
            inst = random_auction(rng, 3, 6)
            c = Fraction(rng.randrange(1, 100))
            out = reserve.reserve_vcg(inst, c, reserve.FILTERED)
            assert all(p >= c for p in out.payments)

    def test_validation(self, tiny):
        with pytest.raises(InputError):
            reserve.reserve_vcg(tiny, -1)
        with pytest.raises(InputError):
            reserve.reserve_vcg(tiny, 1, "other")
        with pytest.raises(InputError):
            reserve.reserve_vcg(tiny, 1, reports=(5, 5, 1))


class TestExpectedUtilities:
    def test_degenerate_lottery_is_the_plain_auction(self, square):
        plain = reserve.reserve_vcg(square, 0).utilities
        assert reserve.expected_utilities_vcg_star(
            square, reserve.VcgStarConfig(0)) == plain

    def test_cheapest_winner_keeps_positive_but_shrinking_utility(self, square):
        previous = None
        for q in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
            expected = reserve.expected_utilities_vcg_star(
                square, reserve.VcgStarConfig(q))
            low = expected[2]
            assert low > 0
            if previous is not None:
                assert low < previous
            previous = low

    def test_underreporting_costs_exactly_the_window_integral(self, square):
        cfg = reserve.VcgStarConfig(Fraction(1, 2), 12)
        truthful = reserve.expected_utilities_vcg_star(square, cfg)
        shaded = reserve.expected_utilities_vcg_star(square, cfg, (6, 4, 1))
        # reserve lands in (1, 2) with density 1/12: the shaded agent forfeits
        # (2 - c) * x_3 there, i.e. q/v_max * x_3 * eps^2/2 with eps = 1
        assert truthful[2] - shaded[2] == \
            Fraction(1, 2) * Fraction(1, 12) * square.ctrs[2] * Fraction(1, 2)

    def test_reports_must_stay_below_the_draw_ceiling(self, square):
        cfg = reserve.VcgStarConfig(Fraction(1, 2), 5)
        with pytest.raises(InputError):
            reserve.expected_utilities_vcg_star(square, cfg)

    def test_utility_is_affine_between_breakpoints(self):
        rng = random.Random(77)
        for _ in range(10):
            inst = random_auction(rng, 4, 4)
            cfg = reserve.VcgStarConfig(Fraction(1, 2))
            points = sorted({Fraction(0), cfg.resolved_v_max(inst), *inst.values})
            for lo, hi in zip(points, points[1:]):
                quarter = lo + (hi - lo) / 4
                mid = lo + (hi - lo) / 2
                threequarter = lo + 3 * (hi - lo) / 4
                for agent in range(inst.n):
                    samples = [reserve.reserve_vcg(inst, c).utilities[agent]
                               for c in (quarter, mid, threequarter)]
                    assert samples[1] - samples[0] == samples[2] - samples[1]


class TestVcgStarConfig:
    @pytest.mark.parametrize("q_reserve, v_max, expected", [
        (1, None, (Fraction(1), None)),
        (Fraction(1, 3), 7, (Fraction(1, 3), Fraction(7))),
        ("1/2", "15/2", (Fraction(1, 2), Fraction(15, 2))),
        ("0.25", None, (Fraction(1, 4), None)),
    ])
    def test_rationals_are_kept_exactly(self, q_reserve, v_max, expected):
        cfg = reserve.VcgStarConfig(q_reserve, v_max)
        assert (cfg.q_reserve, cfg.v_max) == expected

    @pytest.mark.parametrize("q_reserve, v_max", [
        (0.1, None), (True, None), (False, None), ("abc", None), (None, None),
        ([1, 2], None), (Fraction(1, 2), 12.5), (Fraction(1, 2), True),
        (Fraction(1, 2), "1/0"), (Fraction(1, 2), object()),
    ])
    def test_anything_else_is_an_input_error(self, q_reserve, v_max):
        with pytest.raises(InputError):
            reserve.VcgStarConfig(q_reserve, v_max)


class TestExactIntake:
    @pytest.mark.parametrize("call", [
        lambda inst: reserve.reserve_vcg(inst, 0.5),
        lambda inst: reserve.reserve_vcg(inst, True),
        lambda inst: reserve.reserve_vcg(inst, 3, reports=(10, 6, 0.5)),
        lambda inst: reserve.expected_utilities_vcg_star(
            inst, reserve.VcgStarConfig(Fraction(1, 2)), (10, "x", 2)),
        lambda inst: reserve.misreport_grid(inst, 0, 1, 20.0),
        lambda inst: reserve.vcg_star_lambda(inst, 0.1),
        lambda inst: reserve.lambda_payment_gap_bound(inst, 0.1),
    ], ids=["reserve_vcg-c-float", "reserve_vcg-c-bool", "reserve_vcg-reports",
            "expected_utilities_vcg_star-reports", "misreport_grid-v_max",
            "vcg_star_lambda", "lambda_payment_gap_bound"])
    def test_anything_else_is_an_input_error(self, tiny, call):
        with pytest.raises(InputError):
            call(tiny)

    def test_rational_text_is_accepted(self, tiny):
        assert reserve.reserve_vcg(tiny, "1/2") == reserve.reserve_vcg(tiny, Fraction(1, 2))
        assert reserve.lambda_payment_gap_bound(tiny, "1/8") == Fraction(30, 8)
        assert reserve.misreport_grid(tiny, 0, 1, "20") == \
            reserve.misreport_grid(tiny, 0, 1, 20)


class TestTruthTellingSearch:
    def test_certified_with_enough_slots(self, square):
        for q in (Fraction(1, 4), Fraction(1, 2)):
            verdict = reserve.check_truthful_sse(square, reserve.VcgStarConfig(q))
            assert verdict.certified

    def test_certified_for_four_bidders_and_slots(self):
        inst = auction.AuctionInstance(4, (9, 7, 5, 3), (8, 4, 2, 1))
        for refine in (1, 2):
            verdict = reserve.check_truthful_sse(
                inst, reserve.VcgStarConfig(Fraction(1, 2)), refine)
            assert verdict.certified

    def test_search_path_matches_public_expected_utilities(self):
        def midpoint_integral(inst, q, v_max, reports):
            """The reference: the fixed-reserve auction (filtered route) at
            reserve 0 and at the midpoint of every piece between the
            breakpoints, where utility is affine in the reserve."""
            base = reserve.reserve_vcg(inst, 0, reserve.FILTERED, reports).utilities
            points = sorted({Fraction(0), v_max} | {r for r in reports if 0 < r < v_max})
            acc = [Fraction(0)] * inst.n
            for lo, hi in zip(points, points[1:]):
                piece = reserve.reserve_vcg(inst, (lo + hi) / 2, reserve.FILTERED,
                                            reports).utilities
                for i in range(inst.n):
                    acc[i] += (hi - lo) * piece[i]
            return tuple((1 - q) * base[i] + q * acc[i] / v_max for i in range(inst.n))

        rng = random.Random(5)
        shuffler = random.Random(6)
        overtaken = negative = zero = 0
        for _ in range(100):
            s, n = rng.randrange(1, 6), rng.randrange(2, 7)
            drawn_inst = random_auction(rng, s, n)
            # CTRs with a denominator, so the int route scales them too
            inst = auction.AuctionInstance(s, drawn_inst.values,
                                           [x / 7 for x in drawn_inst.ctrs])
            v_max = 4 * inst.values[0]
            q = Fraction(rng.randrange(0, 4), 3)
            # a third of the draws lie below 0, under every reserve
            drawn = rng.sample(range(-int(v_max), int(2 * v_max)), n)
            if rng.randrange(3) == 0 and 0 not in drawn:
                drawn[0] = 0
            ordered = [Fraction(r, 2) for r in sorted(drawn, reverse=True)]
            shuffled = shuffler.sample(ordered, n)
            cfg = reserve.VcgStarConfig(q, v_max)
            d = math.lcm(*(f.denominator for f in (v_max, *inst.values, *ordered)))
            xd = math.lcm(*(f.denominator for f in inst.ctrs))
            exact = reserve._closed_form(q, v_max, inst.values, inst.ctrs)
            scaled = reserve._closed_form(q, int(v_max * d),
                                          [int(v * d) for v in inst.values],
                                          [int(x * xd) for x in inst.ctrs])
            for reports in (ordered, shuffled):
                reference = midpoint_integral(inst, q, v_max, reports)
                assert reserve.expected_utilities_vcg_star(inst, cfg, reports) == reference
                ranked = sorted(range(n), key=reports.__getitem__, reverse=True)
                ints = [int(r * d) for r in reports]
                for agent in range(n):
                    # the search path's identity: 2*c*v_max*E, times D*D*X on ints
                    doubled = 2 * q.denominator * v_max * reference[agent]
                    assert exact(agent, (reports, ranked)) == doubled
                    assert scaled(agent, (ints, ranked)) == doubled * d * d * xd
            overtaken += shuffled != ordered
            negative += ordered[-1] < 0
            zero += 0 in ordered
        assert overtaken >= 50  # most shuffles let a bidder out-report a higher value
        assert negative >= 50 and zero >= 20

    def test_budget_caps_the_searched_space(self, square, monkeypatch):
        cfg = reserve.VcgStarConfig(Fraction(1, 2))
        v_max = cfg.resolved_v_max(square)
        sizes = [len(reserve.misreport_grid(square, i, 1, v_max))
                 for i in range(square.n)]
        space = sum(math.prod(sizes[i] for i in members)
                    for r in range(1, square.n + 1)
                    for members in itertools.combinations(range(square.n), r))
        monkeypatch.setenv("COALSTAB_BUDGET", str(space - 1))
        with pytest.raises(BudgetExceededError) as info:
            reserve.check_truthful_sse(square, cfg)
        assert info.value.required == space
        assert str(info.value) == (f"search space of {space} misreport combos "
                                   f"exceeds budget {space - 1}")
        monkeypatch.setenv("COALSTAB_BUDGET", str(space))
        verdict = reserve.check_truthful_sse(square, cfg)
        assert verdict.certified and verdict.combos_checked <= space

    def test_budget_is_charged_before_any_grid_is_built(self, square, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("a grid was built before the budget check")

        monkeypatch.delenv("COALSTAB_BUDGET", raising=False)
        monkeypatch.setattr(reserve, "misreport_grid", unbuilt)
        with pytest.raises(BudgetExceededError) as info:
            reserve.check_truthful_sse(square, reserve.VcgStarConfig(Fraction(1, 2)), 40)
        points = 4 * (2 ** 40 - 1) + 2
        assert info.value.required == 3 * points + 3 * points ** 2 + points ** 3

    def test_grid_size_has_a_closed_form(self):
        rng = random.Random(43)
        for _ in range(60):
            n, refine = rng.randrange(2, 6), rng.randrange(1, 5)
            den = rng.randrange(1, 5)
            values = [Fraction(v, den)
                      for v in sorted(rng.sample(range(1, 30 * n), n), reverse=True)]
            inst = auction.AuctionInstance(1, values, (1,))
            v_max = values[0] + Fraction(rng.randrange(1, 40), rng.randrange(1, 5))
            for agent in range(n):
                assert len(reserve.misreport_grid(inst, agent, refine, v_max)) == \
                    reserve.misreport_grid_size(n, refine)

    @pytest.mark.parametrize("v_max", [5, 6])
    def test_low_v_max_is_refused_before_the_budget(self, square, monkeypatch, v_max):
        monkeypatch.setenv("COALSTAB_BUDGET", "3")
        with pytest.raises(InputError, match="every report must stay below v_max"):
            reserve.check_truthful_sse(square, reserve.VcgStarConfig(Fraction(1, 2), v_max))

    def test_integer_search_matches_brute_force(self):
        rng = random.Random(41)
        deviations = full_size = 0
        for _ in range(40):
            n, s = rng.randrange(2, 5), rng.randrange(1, 5)
            dv, dx = rng.randrange(1, 6), rng.randrange(1, 6)
            values = [Fraction(v, dv)
                      for v in sorted(rng.sample(range(1, 40 * n), n), reverse=True)]
            ctrs = [Fraction(x, dx)
                    for x in sorted(rng.sample(range(1, 30 * s), s), reverse=True)]
            inst = auction.AuctionInstance(s, values, ctrs)
            q = Fraction(rng.randrange(0, 5), 4)
            v_max = rng.choice([None, values[0] * Fraction(rng.randrange(4, 12), 3)
                                + Fraction(1, 7)])
            cfg = reserve.VcgStarConfig(q, v_max)
            refine = rng.randrange(1, 3) if n <= 3 else 1
            max_coalition = rng.randrange(1, min(n, 4) + 1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ContractWarning)
                verdict = reserve.check_truthful_sse(inst, cfg, refine, max_coalition)
            assert (verdict.certified, verdict.members, verdict.reports,
                    verdict.combos_checked) == \
                brute_force_sse(inst, cfg, refine, max_coalition)
            deviations += not verdict.certified
            full_size += max_coalition == n
        assert deviations >= 12 and full_size >= 12

    def test_no_single_agent_grid_misreport_helps(self, square):
        cfg = reserve.VcgStarConfig(Fraction(1, 2))
        verdict = reserve.check_truthful_sse(square, cfg, max_coalition=1)
        assert verdict.certified

    def test_degenerate_lottery_control_finds_group_move(self, square):
        verdict = reserve.check_truthful_sse(square, reserve.VcgStarConfig(0))
        assert not verdict.certified
        assert verdict.members == (0, 1)  # the two best-paid winners collude

    @pytest.mark.parametrize("max_coalition", [0, -1, 4])
    def test_coalition_cap_outside_one_to_n_rejected(self, square, max_coalition):
        # VcgStarConfig(0) has the (0, 1) deviation, so an empty search
        # must not read as a certificate
        with pytest.raises(InputError):
            reserve.check_truthful_sse(square, reserve.VcgStarConfig(0),
                                       max_coalition=max_coalition)

    def test_spare_bidder_breaks_certification(self):
        inst = auction.AuctionInstance(3, (8, 6, 4, 2), (4, 2, 1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            verdict = reserve.check_truthful_sse(
                inst, reserve.VcgStarConfig(Fraction(1, 2), 16))
        assert any(issubclass(w.category, ContractWarning) for w in caught)
        assert not verdict.certified
        assert inst.n - 1 in verdict.members  # the slotless bidder freerides

    def test_grid_points_avoid_values_and_stay_in_range(self, square):
        v_max = 2 * square.values[0]
        for agent in range(square.n):
            for refine in (1, 2, 3):
                grid = reserve.misreport_grid(square, agent, refine, v_max)
                assert all(0 < g < v_max for g in grid)
                assert square.values[agent] not in grid
                assert len(grid) >= 2 ** refine

    def test_no_grid_point_equals_any_value(self):
        # so a member's report never ties an outsider's truthful one, and
        # the search filters only ties among the members
        rng = random.Random(59)
        for _ in range(60):
            n, refine = rng.randrange(2, 6), rng.randrange(1, 4)
            den = rng.randrange(1, 5)
            values = [Fraction(v, den)
                      for v in sorted(rng.sample(range(1, 30 * n), n), reverse=True)]
            inst = auction.AuctionInstance(1, values, (1,))
            v_max = values[0] + Fraction(rng.randrange(1, 40), rng.randrange(1, 5))
            for agent in range(n):
                grid = reserve.misreport_grid(inst, agent, refine, v_max)
                assert not set(grid).intersection(values)

    def test_grid_matches_fraction_reference(self):
        rng = random.Random(61)
        for _ in range(60):
            n, refine = rng.randrange(2, 6), rng.randrange(1, 5)
            dv, dx = rng.randrange(1, 7), rng.randrange(1, 7)
            values = [Fraction(v, dv)
                      for v in sorted(rng.sample(range(1, 30 * n), n), reverse=True)]
            inst = auction.AuctionInstance(1, values, (1,))
            v_max = rng.choice([2 * values[0],
                                values[0] + Fraction(rng.randrange(1, 40), dx)])
            for agent in range(n):
                assert reserve.misreport_grid(inst, agent, refine, v_max) == \
                    reference_misreport_grid(inst, agent, refine, v_max)

    def test_tied_member_reports_are_skipped(self, square):
        # every coalition's combos, less those in which two members report
        # alike; members share their interior grid points, so ties occur
        cfg = reserve.VcgStarConfig(Fraction(1, 2))
        v_max = cfg.resolved_v_max(square)
        grids = [reserve.misreport_grid(square, i, 2, v_max) for i in range(square.n)]
        untied = tied = 0
        for size in range(1, square.n + 1):
            for members in itertools.combinations(range(square.n), size):
                for joint in itertools.product(*(grids[i] for i in members)):
                    if len(set(joint)) == size:
                        untied += 1
                    else:
                        tied += 1
        verdict = reserve.check_truthful_sse(square, cfg, 2)
        assert verdict.certified and tied > 0
        assert verdict.combos_checked == untied

    @pytest.mark.parametrize("case, refine, combos", [
        ("square q=1/4", 1, 266), ("square q=1/4", 2, 2858),
        ("square q=1/2", 1, 266), ("square q=1/2", 2, 2858),
        ("square q=0", 1, 30), ("spare", 1, 135), ("four", 1, 2540)])
    def test_combos_checked_are_pinned(self, square, case, refine, combos):
        # the oracle-grid benchmark's reserve cases and their pinned counts
        half = Fraction(1, 2)
        inst, cfg = {
            "square q=1/4": (square, reserve.VcgStarConfig(Fraction(1, 4))),
            "square q=1/2": (square, reserve.VcgStarConfig(half)),
            "square q=0": (square, reserve.VcgStarConfig(0)),
            "spare": (auction.AuctionInstance(3, (8, 6, 4, 2), (4, 2, 1)),
                      reserve.VcgStarConfig(half, 16)),
            "four": (auction.AuctionInstance(4, (9, 7, 5, 3), (8, 4, 2, 1)),
                     reserve.VcgStarConfig(half)),
        }[case]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ContractWarning)
            verdict = reserve.check_truthful_sse(inst, cfg, refine)
        assert verdict.combos_checked == combos


class TestSlotRandomisation:
    def test_extension_structure(self):
        inst = auction.AuctionInstance(2, (9, 7, 3, 1), (8, 4))
        ext = reserve.vcg_star_lambda(inst, Fraction(1, 8))
        assert len(ext.extended_ctrs) == inst.n
        assert ext.extended_ctrs[:1] == inst.ctrs[:1]
        assert ext.extended_ctrs[1] == (1 - 2 * Fraction(1, 8)) * 4
        assert ext.extended_ctrs[2] == ext.extended_ctrs[3] == Fraction(1, 2)

    def test_original_slots_keep_their_order(self):
        rng = random.Random(31)
        for _ in range(20):
            s = rng.randrange(2, 6)
            inst = random_auction(rng, s, rng.randrange(s + 1, 2 * s + 2))
            lam = Fraction(1, rng.randrange(inst.n + 1, 4 * inst.n))
            ext = reserve.vcg_star_lambda(inst, lam)
            head = ext.extended_ctrs[:inst.s + 1]
            assert all(a > b for a, b in zip(head, head[1:]))

    def test_payment_shift_bounded_and_vanishing(self):
        rng = random.Random(32)
        for _ in range(20):
            s = rng.randrange(2, 6)
            inst = random_auction(rng, s, rng.randrange(s + 1, 2 * s + 2))
            original = auction.vcg_payments(inst)
            for denom in (2, 4, 10, 10 ** 6):
                lam = Fraction(1, denom * inst.n)
                ext = reserve.vcg_star_lambda(inst, lam)
                bound = reserve.lambda_payment_gap_bound(inst, lam)
                for i in range(inst.s):
                    per_click = abs(ext.payments[i] - original[i])
                    assert per_click <= bound
                    assert per_click * inst.ctrs[i] <= bound * inst.ctrs[0]

    def test_lambda_validation(self):
        inst = auction.AuctionInstance(2, (9, 7, 3, 1), (8, 4))
        with pytest.raises(InputError):
            reserve.vcg_star_lambda(inst, Fraction(1, 4))
        with pytest.raises(InputError):
            reserve.vcg_star_lambda(inst, 0)
        square = auction.AuctionInstance(3, (6, 4, 2), (4, 2, 1))
        with pytest.raises(InputError):
            reserve.vcg_star_lambda(square, Fraction(1, 100))

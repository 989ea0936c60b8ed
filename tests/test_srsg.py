import hashlib
import itertools
import json
import math
import multiprocessing
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coalstab import games, srsg
from coalstab.errors import ContractError, InputError
from conftest import REPEAT, SPLIT


class TestCostsAndEquilibria:
    def test_total_cost_of_doubled_agent(self, small_instance):
        assert srsg.total_cost(small_instance, REPEAT, 0) == 4

    def test_isolated_agent_pays_unit_cost_each_step(self):
        inst = srsg.SrsgInstance(3, 2, 2, srsg.CostFn.linear(2))
        spread = ((0, 1), (2, 1))
        assert srsg.total_cost(inst, spread, 0) == 2 * inst.cost.at_load(1)

    def test_pileup_cost(self):
        inst = srsg.SrsgInstance(2, 3, 2, srsg.CostFn.linear(3))
        pileup = ((0, 0, 0), (0, 0, 0))
        for agent in range(3):
            assert srsg.total_cost(inst, pileup, agent) == 6

    def test_named_profiles_are_equilibria(self, small_instance, named_profiles):
        for assignment in named_profiles.values():
            assert srsg.is_nash(small_instance, assignment)

    def test_pileup_is_not_an_equilibrium(self):
        inst = srsg.SrsgInstance(2, 3, 2, srsg.CostFn.linear(3))
        assert not srsg.is_nash(inst, ((0, 0, 0), (0, 0, 0)))

    def test_nearly_balanced_rows_are_equilibria(self):
        rng = random.Random(2)
        for _ in range(20):
            m, n, k = rng.randrange(2, 5), rng.randrange(2, 9), rng.randrange(2, 4)
            inst = srsg.SrsgInstance(m, n, k, srsg.CostFn.linear(n))
            assert srsg.is_nash(inst, srsg.sample_random_ne(inst, rng.random()))

    def test_is_nash_matches_generic_singleton_scan(self):
        rng = random.Random(9)
        for _ in range(15):
            inst = srsg.SrsgInstance(3, 4, 2, srsg.CostFn.linear(4))
            game = srsg.induced_game(inst)
            profile = tuple(rng.randrange(9) for _ in range(4))
            assignment = srsg.profile_to_assignment(inst, profile)
            assert srsg.is_nash(inst, assignment) == games.is_nash_profile(game, profile)


class TestConstructions:
    def test_repeat_construction_matches_named_profile(self, small_instance):
        assert srsg.build_repeat_ne(small_instance) == REPEAT

    def test_balanced_case_has_no_pair_deviations(self):
        inst = srsg.SrsgInstance(3, 6, 2, srsg.CostFn.linear(6))
        repeat = srsg.build_repeat_ne(inst)
        assert srsg.count_pair_deviations(inst, repeat) == 0

    def test_three_step_repeat_count(self):
        inst = srsg.SrsgInstance(2, 3, 3, srsg.CostFn.linear(3))
        repeat = srsg.build_repeat_ne(inst)
        assert srsg.count_pair_deviations(inst, repeat) == 1

    def test_repeat_count_closed_form(self):
        for m in range(2, 5):
            for n in range(m + 1, 3 * m):
                inst = srsg.SrsgInstance(m, n, 2, srsg.CostFn.linear(n))
                repeat = srsg.build_repeat_ne(inst)
                expected = inst.q * math.comb(inst.full_load, 2)
                assert srsg.count_pair_deviations(inst, repeat) == expected

    @pytest.mark.parametrize("m,n", [(4, 6), (2, 5), (2, 7), (3, 7)])
    def test_scatter_yields_no_pair_deviations_in_easy_regimes(self, m, n):
        inst = srsg.SrsgInstance(m, n, 2, srsg.CostFn.linear(n))
        scatter = srsg.build_scatter_ne(inst)
        assert srsg.is_nash(inst, scatter)
        assert srsg.count_pair_deviations(inst, scatter) == 0
        assert srsg.count_pair_deviations(inst, scatter, "bruteforce") == 0

    def test_scatter_requires_two_steps(self):
        inst = srsg.SrsgInstance(2, 3, 3, srsg.CostFn.linear(3))
        with pytest.raises(InputError):
            srsg.build_scatter_ne(inst)

    def test_constructions_need_convex_costs(self):
        concave = srsg.CostFn((0, 2, 3, 3, 3, 3))
        inst = srsg.SrsgInstance(4, 6, 2, concave)
        with pytest.raises(ContractError):
            srsg.build_repeat_ne(inst)


class TestStructuralRule:
    def test_doubled_pair_can_trade(self, small_instance):
        assert srsg.pair_deviates_structural(small_instance, REPEAT, 0, 1)

    def test_no_pair_trades_after_split(self, small_instance):
        for i in range(6):
            for j in range(i + 1, 6):
                assert not srsg.pair_deviates_structural(small_instance, SPLIT, i, j)

    def test_share_summary_tags(self, small_instance):
        shared = srsg.pair_share_summary(small_instance, REPEAT, 0, 1)
        assert shared == ((0, "full"), (1, "full"))
        solo = srsg.pair_share_summary(small_instance, REPEAT, 4, 5)
        assert solo == ()

    def test_structural_rule_matches_exhaustive_search(self):
        rng = random.Random(17)
        for trial in range(12):
            m = rng.randrange(2, 4)
            n = rng.randrange(m + 1, m * 3)
            k = rng.randrange(2, 4)
            inst = srsg.SrsgInstance(m, n, k, srsg.CostFn.linear(n))
            assignment = srsg.sample_random_ne(inst, trial)
            game = srsg.induced_game(inst)
            profile = srsg.assignment_to_profile(inst, assignment)
            for i in range(n):
                for j in range(i + 1, n):
                    expected = games.has_deviation(game, profile, (i, j))
                    assert srsg.pair_deviates_structural(inst, assignment, i, j) == expected

    def test_structural_rule_guards_its_preconditions(self, small_instance):
        pileup = ((0,) * 6, (0,) * 6)
        with pytest.raises(ContractError):
            srsg.pair_deviates_structural(small_instance, pileup, 0, 1)

    def test_count_methods_agree(self, small_instance, named_profiles):
        for assignment in named_profiles.values():
            structural = srsg.count_pair_deviations(small_instance, assignment)
            brute = srsg.count_pair_deviations(small_instance, assignment, "bruteforce")
            assert structural == brute


    @settings(max_examples=60)
    @given(m=st.integers(2, 4), n_extra=st.integers(1, 8), k=st.integers(2, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_structural_rule_matches_bruteforce_on_random_equilibria(
            self, m, n_extra, k, seed):
        inst = srsg.SrsgInstance(m, m + n_extra, k, srsg.CostFn.linear(m + n_extra))
        assignment = srsg.sample_random_ne(inst, seed)
        assert srsg.count_pair_deviations(inst, assignment) == \
            srsg.count_pair_deviations(inst, assignment, "bruteforce")


class TestRandomEquilibria:
    def test_sampling_is_deterministic_in_the_seed(self, small_instance):
        a = srsg.sample_random_ne(small_instance, 123)
        b = srsg.sample_random_ne(small_instance, 123)
        c = srsg.sample_random_ne(small_instance, 124)
        assert a == b
        assert a != c

    def test_two_resource_three_agent_sharing_rate(self):
        inst = srsg.SrsgInstance(2, 3, 2, srsg.CostFn.linear(3))
        assert srsg.per_step_full_share_probability(inst) == Fraction(1, 3)
        hits = 0
        trials = 3000
        for i in range(trials):
            row = srsg.sample_random_ne(inst, i)[0]
            if row[0] == row[1]:
                loads = [row.count(r) for r in range(2)]
                if loads[row[0]] == 2:
                    hits += 1
        p = 1 / 3
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) < 3 * sigma

    def test_wide_instance_sharing_rate(self):
        inst = srsg.SrsgInstance(10, 25, 2, srsg.CostFn.linear(25))
        p = srsg.per_step_full_share_probability(inst)
        assert p == Fraction(1, 20)
        hits = 0
        trials = 4000
        for i in range(trials):
            row = srsg.sample_random_ne(inst, i)[0]
            if row[0] == row[1] and row.count(row[0]) == inst.full_load:
                hits += 1
        sigma = math.sqrt(float(p) * (1 - float(p)) / trials)
        assert abs(hits / trials - float(p)) < 3 * sigma

    def test_every_balanced_partition_is_reachable(self):
        inst = srsg.SrsgInstance(2, 3, 2, srsg.CostFn.linear(3))
        seen = {srsg.sample_random_ne(inst, i)[0] for i in range(300)}
        assert len(seen) == 6  # 2 choices of doubled resource x 3 groupings

    def test_worker_split_does_not_change_results(self, small_instance):
        sequential = srsg.sample_pair_deviation_counts(small_instance, 40, 7)
        split = srsg.sample_pair_deviation_counts(small_instance, 40, 7, workers=2)
        assert sequential == split


def dict_pair_count(inst, assignment):
    """Reference count on rows: tally the pairs of every full group in a
    dict, step by step, and keep those seen at two or more steps."""
    if inst.q == 0:
        return 0
    seen = {}
    for row in assignment:
        groups = [[] for _ in range(inst.m)]
        for agent, r in enumerate(row):
            groups[r].append(agent)
        for group in groups:
            if len(group) == inst.full_load:
                for pair in itertools.combinations(group, 2):
                    seen[pair] = seen.get(pair, 0) + 1
    return sum(1 for hits in seen.values() if hits >= 2)


class TestSampler:
    """The sampler's own permutation draw and seen/twice pair counter
    against `random.Random.sample`, the pair rule and the former counter."""

    def test_ten_thousand_counts_are_pinned(self):
        # sha256 of the counts' JSON, as `dict_pair_count` on each row gives them
        inst = srsg.SrsgInstance(10, 55, 3, srsg.CostFn.linear(55))
        for workers in (1, 2):
            counts = srsg.sample_pair_deviation_counts(inst, 10000, 1, workers)
            assert hashlib.sha256(json.dumps(counts).encode()).hexdigest() == \
                "cb92b49532572f6229604cc4f8a60ab96bf27b34e033072fadad195f9f6a972b"

    @settings(max_examples=300)
    @given(n=st.integers(1, 300), seed=st.integers(0, 2**64))
    def test_permutation_is_random_sample(self, n, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert srsg._permutation(ours.getrandbits, n) == theirs.sample(range(n), n)
        assert ours.getstate() == theirs.getstate()

    @settings(max_examples=150)
    @given(m=st.integers(2, 6), n=st.integers(2, 15), k=st.integers(2, 5),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    @example(m=3, n=9, k=4, seed=0, data=None)  # q = 0
    @example(m=6, n=4, k=5, seed=1, data=None)  # n < m
    def test_counter_matches_pair_rule_and_dict_counter(self, m, n, k, seed, data):
        inst = srsg.SrsgInstance(m, n, k, srsg.CostFn.linear(n))
        assignment = srsg.sample_random_ne(inst, seed)
        count = srsg.count_pair_deviations(inst, assignment)
        assert count == sum(srsg.pair_deviates_structural(inst, assignment, i, j)
                            for i, j in itertools.combinations(range(n), 2))
        assert count == dict_pair_count(inst, assignment)
        if data is not None:  # any rows, equilibrium or not
            row = st.lists(st.integers(0, m - 1), min_size=n, max_size=n)
            rows = tuple(tuple(data.draw(row)) for _ in range(k))
            assert srsg._structural_pair_count(inst, rows) == dict_pair_count(inst, rows)

    # (30, 59, 10): many full groups of two, dealt in unsorted chunks
    @pytest.mark.parametrize("m,n,k", [(10, 55, 3), (3, 9, 4), (6, 4, 5), (4, 9, 3),
                                       (30, 59, 10)])
    def test_counts_are_sample_random_ne_counts(self, m, n, k):
        inst = srsg.SrsgInstance(m, n, k, srsg.CostFn.linear(n))
        counts = srsg.sample_pair_deviation_counts(inst, 200, 5)
        assert counts == [
            srsg.count_pair_deviations(
                inst, srsg.sample_random_ne(inst, 5 * srsg._SEED_STRIDE + i))
            for i in range(200)]

    def test_pool_starts_no_more_processes_than_jobs(self, small_instance, monkeypatch):
        sizes = []
        pool = multiprocessing.Pool

        def recording_pool(processes=None, *args, **kwargs):
            sizes.append(processes)
            return pool(processes, *args, **kwargs)

        monkeypatch.setattr(multiprocessing, "Pool", recording_pool)
        counts = srsg.sample_pair_deviation_counts(small_instance, 3, 7, workers=8)
        assert sizes == [3]
        assert counts == srsg.sample_pair_deviation_counts(small_instance, 3, 7)


class TestExpectedCounts:
    def test_two_by_three_exact_value(self):
        inst = srsg.SrsgInstance(2, 3, 2, srsg.CostFn.linear(3))
        assert srsg.expected_pair_deviations(inst) == Fraction(3, 16)

    def test_balanced_instances_expect_zero(self):
        inst = srsg.SrsgInstance(3, 6, 4, srsg.CostFn.linear(6))
        assert srsg.expected_pair_deviations(inst) == 0
        assert srsg.expected_pair_deviations(inst, "exponential_approx") == 0.0

    def test_approximation_tracks_exact_form(self):
        # the two forms approximate each other through the no-deviation
        # probability; their small tails only align once k grows
        pairs = math.comb(55, 2)
        inst = srsg.SrsgInstance(10, 55, 3, srsg.CostFn.linear(55))
        collision = float(srsg.expected_pair_deviations(inst, "collision"))
        approx = srsg.expected_pair_deviations(inst, "exponential_approx")
        assert 1 - approx / pairs == pytest.approx(1 - collision / pairs, rel=0.01)
        longer = srsg.SrsgInstance(10, 55, 25, srsg.CostFn.linear(55))
        collision = float(srsg.expected_pair_deviations(longer))
        approx = srsg.expected_pair_deviations(longer, "exponential_approx")
        assert approx == pytest.approx(collision, rel=0.10)

    def test_collision_form_has_no_old_alias(self):
        inst = srsg.SrsgInstance(2, 3, 2, srsg.CostFn.linear(3))
        with pytest.raises(InputError):
            srsg.expected_pair_deviations(inst, "exact_beta")

    def test_exact_per_pair_expectation_matches_simulation(self):
        inst = srsg.SrsgInstance(4, 9, 3, srsg.CostFn.linear(9))
        counts = srsg.sample_pair_deviation_counts(inst, 2000, 99)
        mean = sum(counts) / len(counts)
        mu = float(srsg.exact_expected_pair_deviations(inst))
        var = sum((c - mean) ** 2 for c in counts) / (len(counts) - 1)
        sigma = math.sqrt(var / len(counts))
        assert abs(mean - mu) < 3 * sigma


class TestEncoding:
    def test_profile_round_trip(self, small_instance, named_profiles):
        for assignment in named_profiles.values():
            profile = srsg.assignment_to_profile(small_instance, assignment)
            assert srsg.profile_to_assignment(small_instance, profile) == assignment

    def test_utility_is_negated_total_cost(self, small_instance, small_game):
        profile = srsg.assignment_to_profile(small_instance, REPEAT)
        for agent in range(6):
            assert small_game.utility(agent, profile) == -srsg.total_cost(
                small_instance, REPEAT, agent)

    def test_validation(self, small_instance):
        with pytest.raises(InputError):
            srsg.validate_assignment(small_instance, ((0,) * 6,))
        with pytest.raises(InputError):
            srsg.validate_assignment(small_instance, ((0,) * 6, (9,) * 6))
        with pytest.raises(InputError):
            srsg.SrsgInstance(1, 6, 2, srsg.CostFn.linear(6))
        with pytest.raises(InputError):
            srsg.CostFn((3, 2, 1))


@st.composite
def srsg_cases(draw):
    """An srsg instance with a linear or a random nondecreasing cost (flat
    stretches and zero costs included, some steps fractional), two
    arbitrary profiles and a few coalitions of at most three agents."""
    m, n, k = draw(st.integers(2, 3)), draw(st.integers(3, 6)), draw(st.integers(2, 3))
    if draw(st.booleans()):
        cost = srsg.CostFn.linear(n)
    else:
        rises = draw(st.lists(st.sampled_from((0, 0, 1, 2, Fraction(1, 2), Fraction(5, 3))),
                              min_size=n, max_size=n))
        cost = srsg.CostFn(tuple(itertools.accumulate(rises)))
    inst = srsg.SrsgInstance(m, n, k, cost)
    action = st.integers(0, m ** k - 1)
    profiles = [tuple(draw(st.lists(action, min_size=n, max_size=n))) for _ in range(2)]
    coalition = st.lists(st.integers(0, n - 1), min_size=1, max_size=3,
                         unique=True).map(lambda c: tuple(sorted(c)))
    return inst, profiles, draw(st.lists(coalition, min_size=1, max_size=3))


class TestDeviationTest:
    """The srsg decision hook against the generic scan of the same utility."""

    @settings(max_examples=150)
    @given(case=srsg_cases(), kind=st.sampled_from((games.STRICT, games.WEAK)))
    def test_hook_agrees_with_generic_scan(self, case, kind):
        inst, profiles, coalitions = case
        game = srsg.induced_game(inst)
        generic = games.FiniteGame(game.player_count, game.action_counts, game.utility)
        # alternate the two profiles so each call finds the other's memo
        for members in coalitions:
            for profile in profiles:
                witness = games.find_deviation(generic, profile, members, kind)
                assert games.has_deviation(game, profile, members, kind) == \
                    (witness is not None)
                assert games.find_deviation(game, profile, members, kind) == witness

    def test_has_deviation_builds_no_witness(self, small_instance):
        calls = []
        game = srsg.induced_game(small_instance)

        def utility(agent, profile):
            calls.append(agent)
            return game.utility(agent, profile)

        hooked = games.FiniteGame(game.player_count, game.action_counts, utility,
                                  deviation_test=game.deviation_test)
        profile = srsg.assignment_to_profile(small_instance, REPEAT)
        assert games.score_vector(hooked, profile, games.WEAK).counts == (0, 2, 8, 9, 2, 0)
        assert calls == []
        assert games.find_deviation(hooked, profile, (0, 1)) == \
            games._generic_search(game, (0, 1), profile, games.STRICT)
        assert calls

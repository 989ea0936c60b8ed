import hashlib
import itertools
import json
import math
import multiprocessing
import os
import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coalstab import games, srsg
from coalstab.errors import ContractError, InputError
from conftest import REPEAT, ROTATE, SPLIT, is_nash_profile, profile_to_assignment, total_cost


def game_cost(inst, assignment, agent):
    """The agent's cost read off the induced game's utility."""
    profile = srsg.assignment_to_profile(inst, assignment)
    return -srsg.induced_game(inst).utility(agent, profile)


class TestCostsAndEquilibria:
    def test_total_cost_of_doubled_agent(self, small_instance):
        assert game_cost(small_instance, REPEAT, 0) == \
            total_cost(small_instance, REPEAT, 0) == 4

    def test_isolated_agent_pays_unit_cost_each_step(self):
        inst = srsg.SrsgInstance(3, 2, 2, srsg.CostFn.linear(2))
        spread = ((0, 1), (2, 1))
        assert game_cost(inst, spread, 0) == total_cost(inst, spread, 0) == \
            2 * inst.cost.values[0]

    def test_pileup_cost(self):
        inst = srsg.SrsgInstance(2, 3, 2, srsg.CostFn.linear(3))
        pileup = ((0, 0, 0), (0, 0, 0))
        for agent in range(3):
            assert game_cost(inst, pileup, agent) == total_cost(inst, pileup, agent) == 6

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
            assert srsg.is_nash(inst, srsg.sample_random_ne(inst, rng.randrange(2**32)))

    def test_is_nash_matches_generic_singleton_scan(self):
        rng = random.Random(9)
        for _ in range(15):
            inst = srsg.SrsgInstance(3, 4, 2, srsg.CostFn.linear(4))
            game = srsg.induced_game(inst)
            profile = tuple(rng.randrange(9) for _ in range(4))
            assignment = profile_to_assignment(inst, profile)
            assert srsg.is_nash(inst, assignment) == is_nash_profile(game, profile)


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
        # agents 0, 1 and agents 2, 3 share a doubled resource in both steps
        assert srsg.count_pair_deviations(small_instance, REPEAT) == 2

    def test_no_pair_trades_after_split(self, small_instance):
        assert srsg.count_pair_deviations(small_instance, SPLIT) == 0

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
            deviating = 0
            for i in range(n):
                for j in range(i + 1, n):
                    expected = games.has_deviation(game, profile, (i, j))
                    assert shares_full_resource_twice(inst, assignment, i, j) == expected
                    deviating += expected
            assert srsg.count_pair_deviations(inst, assignment) == deviating

    def test_structural_rule_guards_its_preconditions(self, small_instance):
        pileup = ((0,) * 6, (0,) * 6)
        with pytest.raises(ContractError):
            srsg.count_pair_deviations(small_instance, pileup)
        concave = srsg.SrsgInstance(4, 6, 2, srsg.CostFn((0, 2, 3, 3, 3, 3)))
        with pytest.raises(ContractError):
            srsg.count_pair_deviations(concave, REPEAT)

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


def shares_full_resource_twice(inst, assignment, i, j):
    """Reference pair rule on rows: agents i and j share a resource holding
    ceil(n/m) agents, with n % m > 0, in two or more steps."""
    if inst.q == 0:
        return False
    return sum(row[i] == row[j] and row.count(row[i]) == inst.full_load
               for row in assignment) >= 2


class TestSampler:
    """The sampler's own permutation draw and agent-mask pair counter
    against `random.Random.sample`, the pair rule, a dict pair counter and
    `count_pair_deviations` on `sample_random_ne`."""

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
        pool = list(range(n))
        srsg._permutation(ours.getrandbits, pool, srsg._permutation_steps(n))
        assert pool[::-1] == theirs.sample(range(n), n)
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
        assert count == sum(shares_full_resource_twice(inst, assignment, i, j)
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

    # n up to 80, so the agent masks pass 64 bits
    @settings(max_examples=150)
    @given(m=st.integers(2, 8), n=st.integers(2, 80), k=st.integers(2, 5),
           samples=st.integers(0, 20), seed=st.integers(0, 2**32))
    @example(m=4, n=12, k=3, samples=5, seed=0)  # q = 0
    @example(m=8, n=5, k=4, samples=5, seed=1)  # n < m
    def test_sampler_is_count_of_sample_random_ne(self, m, n, k, samples, seed):
        inst = srsg.SrsgInstance(m, n, k, srsg.CostFn.linear(n))
        rows = [srsg.sample_random_ne(inst, seed * srsg._SEED_STRIDE + i)
                for i in range(samples)]
        counts = srsg.sample_pair_deviation_counts(inst, samples, seed)
        assert counts == [srsg.count_pair_deviations(inst, a) for a in rows]
        assert counts == [dict_pair_count(inst, a) for a in rows]

    def test_negative_seed_rejected(self):
        # random.Random(-1) is random.Random(1): seed -1 would repeat seed 1
        inst = srsg.SrsgInstance(10, 55, 3, srsg.CostFn.linear(55))
        with pytest.raises(InputError):
            srsg.sample_pair_deviation_counts(inst, 3, -1)
        with pytest.raises(InputError):
            srsg.sample_random_ne(inst, -1)

    # random.Random seeds a float with its hash and True as 1; a float count
    # would reach range() as a bare TypeError
    @pytest.mark.parametrize("value", [1.5, True, False, 2.0])
    def test_seed_and_count_must_be_ints(self, small_instance, value):
        with pytest.raises(InputError, match="seed must be an int"):
            srsg.sample_random_ne(small_instance, value)
        with pytest.raises(InputError, match="seed must be an int"):
            srsg.sample_pair_deviation_counts(small_instance, 1, value)
        with pytest.raises(InputError, match="samples must be an int"):
            srsg.sample_pair_deviation_counts(small_instance, value, 1)

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The process count of each `multiprocessing.Pool` the test starts."""
        sizes = []
        pool = multiprocessing.Pool

        def recording_pool(processes=None, *args, **kwargs):
            sizes.append(processes)
            return pool(processes, *args, **kwargs)

        monkeypatch.setattr(multiprocessing, "Pool", recording_pool)
        return sizes

    def test_pool_starts_no_more_processes_than_jobs(self, small_instance,
                                                     monkeypatch, pool_sizes):
        # eight usable CPUs, so the two jobs, not the CPUs, bound the pool
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        counts = srsg.sample_pair_deviation_counts(small_instance, 2, 7, workers=8)
        assert pool_sizes == [2]
        assert counts == srsg.sample_pair_deviation_counts(small_instance, 2, 7)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_pool_starts_no_more_processes_than_usable_cpus(
            self, small_instance, monkeypatch, pool_sizes, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        counts = srsg.sample_pair_deviation_counts(small_instance, 6, 7, workers=5000)
        assert pool_sizes == ([] if cpus == 1 else [cpus])  # one CPU: no pool
        assert counts == srsg.sample_pair_deviation_counts(small_instance, 6, 7)

    def test_usable_cpus_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert srsg._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert srsg._usable_cpus() == 1


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
            assert profile_to_assignment(small_instance, profile) == assignment

    @settings(max_examples=100)
    @given(m=st.integers(2, 5), n=st.integers(2, 9), k=st.integers(2, 4),
           data=st.data())
    def test_random_assignment_round_trip(self, m, n, k, data):
        inst = srsg.SrsgInstance(m, n, k, srsg.CostFn.linear(n))
        row = st.lists(st.integers(0, m - 1), min_size=n, max_size=n).map(tuple)
        assignment = tuple(data.draw(st.lists(row, min_size=k, max_size=k)))
        profile = srsg.assignment_to_profile(inst, assignment)
        assert profile_to_assignment(inst, profile) == assignment

    def test_utility_is_negated_total_cost(self, small_instance, small_game):
        profile = srsg.assignment_to_profile(small_instance, REPEAT)
        for agent in range(6):
            assert small_game.utility(agent, profile) == -total_cost(
                small_instance, REPEAT, agent)

    def test_validation(self, small_instance):
        with pytest.raises(InputError):
            srsg.validate_assignment(small_instance, ((0,) * 6,))
        with pytest.raises(InputError):
            srsg.validate_assignment(small_instance, ((0,) * 6, (9,) * 6))
        with pytest.raises(InputError):  # a bool is not a resource index
            srsg.validate_assignment(srsg.SrsgInstance(2, 3, 2, srsg.CostFn.linear(3)),
                                     ((True, False, 0), (0, 1, 1)))
        with pytest.raises(InputError):
            srsg.SrsgInstance(1, 6, 2, srsg.CostFn.linear(6))
        with pytest.raises(InputError):
            srsg.CostFn((3, 2, 1))

    # a float count would reach `bit_length` or build a game of 32.0
    # actions; a bool or a float cost would be kept as a number
    @pytest.mark.parametrize("build", [
        lambda: srsg.SrsgInstance(4, 6.0, 2, srsg.CostFn.linear(6)),
        lambda: srsg.SrsgInstance(4, 6, 2.5, srsg.CostFn.linear(6)),
        lambda: srsg.SrsgInstance(True, 6, 2, srsg.CostFn.linear(6)),
        lambda: srsg.CostFn((1, True, 3, 4, 5, 6)),
        lambda: srsg.CostFn((1, 2.5, 3)),
        lambda: games.score_vector(srsg.induced_game(srsg.SrsgInstance(
            2, 3, 2, srsg.CostFn.linear(3))), (0, 0, 0), r_max=True),
        lambda: games.search_budget(True),
        lambda: games.search_budget(2.5),
    ], ids=["float-n", "float-k", "bool-m", "bool-cost", "float-cost",
            "bool-r-max", "bool-budget", "float-budget"])
    def test_numbers_must_be_ints_or_rationals(self, build):
        with pytest.raises(InputError):
            build()

    def test_cost_keeps_exact_rationals(self):
        assert srsg.CostFn((1, "3/2", Fraction(2))).values == (1, Fraction(3, 2), 2)

    # all n agents on the last resource in every step fill the top field to
    # n, at both ends of the field widths 2, 3 and 4; the cost table runs to
    # load n + 1, so a field that wrapped to 0 cannot read the right cost
    # from values[-1]
    @settings(max_examples=150)
    @given(m=st.integers(2, 5), n=st.integers(2, 17), k=st.integers(2, 4),
           data=st.data())
    @example(m=2, n=3, k=2, data=None)
    @example(m=3, n=4, k=2, data=None)
    @example(m=2, n=7, k=3, data=None)
    @example(m=4, n=8, k=2, data=None)
    @example(m=5, n=15, k=4, data=None)
    @example(m=3, n=16, k=3, data=None)
    def test_packed_utility_is_negated_total_cost(self, m, n, k, data):
        if data is None:
            cost, profile = srsg.CostFn.linear(n + 1), (m ** k - 1,) * n
        else:
            cost = data.draw(st.one_of(st.just(srsg.CostFn.linear(n)), costs(n)))
            action = st.integers(0, m ** k - 1)
            profile = tuple(data.draw(st.lists(action, min_size=n, max_size=n)))
        inst = srsg.SrsgInstance(m, n, k, cost)
        game = srsg.induced_game(inst)
        assignment = profile_to_assignment(inst, profile)
        for agent in range(n):  # the same value of the same type: int or Fraction
            got, want = game.utility(agent, profile), -total_cost(inst, assignment, agent)
            assert (got, type(got)) == (want, type(want))

    # `utility` keeps no profile between calls; a list changed in place, or
    # another tuple, must be summed afresh
    @pytest.mark.parametrize("cost", [
        srsg.CostFn.linear(5),
        srsg.CostFn((Fraction(1, 2), 1, Fraction(5, 2), 4, Fraction(22, 3))),
    ], ids=["int", "fraction"])
    def test_utility_cache_never_serves_a_changed_profile(self, cost):
        inst = srsg.SrsgInstance(3, 5, 2, cost)
        game = srsg.induced_game(inst)
        rng = random.Random(3)
        work = [rng.randrange(9) for _ in range(5)]
        pool = [tuple(rng.randrange(9) for _ in range(5)) for _ in range(4)]
        for _ in range(300):
            if rng.random() < 0.5:
                agent = rng.randrange(5)
                work[agent] = (work[agent] + rng.randrange(1, 9)) % 9
                profile = work
            else:  # the same tuple again, or an equal copy of it
                profile = rng.choice(pool)
                profile = profile if rng.random() < 0.5 else tuple(list(profile))
            assignment = profile_to_assignment(inst, profile)
            for agent in rng.sample(range(5), 5):
                got, want = game.utility(agent, profile), -total_cost(inst, assignment, agent)
                assert (got, type(got)) == (want, type(want))


def costs(n):
    """Random nondecreasing costs up to load n: flat stretches and zero
    costs included, some steps fractional."""
    rises = st.lists(st.sampled_from((0, 0, 1, 2, Fraction(1, 2), Fraction(5, 3))),
                     min_size=n, max_size=n)
    return rises.map(lambda r: srsg.CostFn(tuple(itertools.accumulate(r))))


JOINT_CAP = 20_000  # the generic scan's joint space m^(k*r), the oracle's cost


@st.composite
def srsg_cases(draw):
    """An srsg instance with a linear or a random nondecreasing cost, two
    arbitrary profiles and a few coalitions of up to five agents, as large
    as keeps the generic scan's joint space m^(k*r) within JOINT_CAP: five
    agents at m = k = 2, and at k = 4 three or two, so the hook's middle
    steps run twice."""
    m, n, k = draw(st.integers(2, 3)), draw(st.integers(3, 6)), draw(st.integers(2, 4))
    cost = srsg.CostFn.linear(n) if draw(st.booleans()) else draw(costs(n))
    inst = srsg.SrsgInstance(m, n, k, cost)
    action = st.integers(0, m ** k - 1)
    profiles = [tuple(draw(st.lists(action, min_size=n, max_size=n))) for _ in range(2)]
    size = max(r for r in range(1, min(5, n) + 1) if m ** (k * r) <= JOINT_CAP)
    coalition = st.integers(1, size).flatmap(lambda r: st.lists(
        st.integers(0, n - 1), min_size=r, max_size=r, unique=True)).map(
        lambda c: tuple(sorted(c)))
    return inst, profiles, draw(st.lists(coalition, min_size=1, max_size=3))


def crowded(n, k):
    """srsg(2, n, k) with every agent on the last resource in every step,
    then on the first, so a load of n sits in the top field, then in the
    lowest: n = 7 sets all 3 bits of its field, and n = 8 is the first load
    that needs a 4-bit field."""
    inst = srsg.SrsgInstance(2, n, k, srsg.CostFn.linear(n))
    return inst, [(2 ** k - 1,) * n, (0,) * n], [(0,), (1, 2), (0, 3, 6)]


# srsg(2,6,2) with a flat stretch in its cost, and coalitions of five: the
# largest the differential draws, and only at m = k = 2
FIVE = (srsg.SrsgInstance(2, 6, 2, srsg.CostFn((0, 1, 1, 2, 4, 4))),
        [(3, 3, 3, 0, 1, 3), (3, 3, 3, 3, 3, 0)], [(0, 1, 2, 3, 4), (1, 2, 3, 4, 5)])


class TestDeviationTest:
    """The srsg decision hook against the generic scan of the same utility."""

    @settings(max_examples=150)
    @given(case=srsg_cases(), kind=st.sampled_from((games.STRICT, games.WEAK)))
    @example(case=crowded(7, 2), kind=games.STRICT)
    @example(case=crowded(7, 2), kind=games.WEAK)
    @example(case=crowded(7, 3), kind=games.STRICT)
    @example(case=crowded(7, 3), kind=games.WEAK)
    @example(case=crowded(8, 2), kind=games.STRICT)
    @example(case=crowded(8, 2), kind=games.WEAK)
    @example(case=crowded(8, 3), kind=games.STRICT)
    @example(case=crowded(8, 3), kind=games.WEAK)
    @example(case=FIVE, kind=games.STRICT)
    @example(case=FIVE, kind=games.WEAK)
    def test_hook_agrees_with_generic_scan(self, case, kind):
        inst, profiles, coalitions = case
        game = srsg.induced_game(inst)
        generic = games.FiniteGame(game.player_count, game.action_counts, game.utility)
        # alternate the two profiles, which share the game's step-cost caches
        for members in coalitions:
            for profile in profiles:
                witness = games.find_deviation(generic, profile, members, kind)
                assert games.has_deviation(game, profile, members, kind) == \
                    (witness is not None)
                assert games.find_deviation(game, profile, members, kind) == witness

    # srsg(2,4,3), linear cost, coalition (2, 3), strict.  The outsiders 0
    # and 1 leave a least load of 1, 1 and 0 in the three steps, so any
    # member pays at least 2 + 2 + 1 = 5.  At (6, 5, 2, 7) agent 2 pays 6:
    # its slack is exactly the remaining cheapest costs plus 1 at every step,
    # and the deviation (0, 7) needs all of it.  At (6, 5, 0, 7) agent 2
    # already pays 5, a unit short of any strict gain.
    @pytest.mark.parametrize("profile,witness", [
        ((6, 5, 2, 7), (0, 7)),
        ((6, 5, 0, 7), None),
    ], ids=["slack-equals-cheapest-sum", "slack-a-unit-short"])
    def test_reach_bound_knife_edge(self, profile, witness):
        inst = srsg.SrsgInstance(2, 4, 3, srsg.CostFn.linear(4))
        game = srsg.induced_game(inst)
        generic = games.FiniteGame(game.player_count, game.action_counts, game.utility)
        assert games.find_deviation(generic, profile, (2, 3), games.STRICT) == witness
        assert game.deviation_test((2, 3), profile, games.STRICT) == (witness is not None)

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


MEMO_CAP = 256  # the generic scan's joint space m^(k*r) per queried coalition


@st.composite
def memo_cases(draw):
    """An srsg instance with a linear or a random nondecreasing cost and
    two profiles, drawn from a few actions so that coalitions of equal
    action multisets recur within and across the profiles."""
    m, n, k = draw(st.integers(2, 3)), draw(st.integers(3, 5)), draw(st.integers(2, 3))
    cost = srsg.CostFn.linear(n) if draw(st.booleans()) else draw(costs(n))
    actions = draw(st.lists(st.integers(0, m ** k - 1), min_size=1, max_size=3))
    action = st.sampled_from(actions)
    profiles = [tuple(draw(st.lists(action, min_size=n, max_size=n))) for _ in range(2)]
    return srsg.SrsgInstance(m, n, k, cost), profiles


class TestHookMemo:
    """The hook's answers hold only for the profile and kind they were found
    at: every query agrees with the generic scan, whatever came before."""

    @settings(max_examples=40)
    @given(case=memo_cases(), rng=st.randoms(use_true_random=False))
    def test_shuffled_queries_agree_with_generic_scan(self, case, rng):
        inst, profiles = case
        game = srsg.induced_game(inst)
        sizes = [r for r in range(1, inst.n + 1) if inst.m ** (inst.k * r) <= MEMO_CAP]
        queries = [(profile, members, kind)
                   for profile in profiles for kind in (games.STRICT, games.WEAK)
                   for r in sizes for members in itertools.combinations(range(inst.n), r)]
        rng.shuffle(queries)
        for profile, members, kind in queries:
            want = games._generic_search(game, members, profile, kind) is not None
            assert game.deviation_test(members, profile, kind) == want

    # srsg(2,4,2), linear cost, coalition (0, 1) with actions (0, 0) both
    # times.  Alone on resource 0 the pair moves together to resource 1 and
    # pays 2 + 2 instead of 4 + 4; with agents 2 and 3 on resource 1 it has
    # nowhere better to go.  So a memo keyed on the actions alone answers
    # the second profile from the first.
    @pytest.mark.parametrize("kind", [games.STRICT, games.WEAK])
    def test_same_actions_under_other_loads(self, kind):
        game = srsg.induced_game(srsg.SrsgInstance(2, 4, 2, srsg.CostFn.linear(4)))
        for profile, want in (((0, 0, 0, 0), True), ((0, 0, 3, 3), False),
                              ((0, 0, 0, 0), True)):
            assert (games._generic_search(game, (0, 1), profile, kind) is not None) == want
            assert game.deviation_test((0, 1), profile, kind) == want

    # the memo keeps a tuple copy of its profile, and a list never equals a
    # tuple, so a list changed in place between queries is decided afresh
    @pytest.mark.parametrize("kind", [games.STRICT, games.WEAK])
    def test_list_changed_in_place_gets_fresh_answers(self, kind):
        game = srsg.induced_game(srsg.SrsgInstance(2, 4, 2, srsg.CostFn.linear(4)))
        profile = [0, 0, 0, 0]
        for actions, want in (((0, 0), True), ((3, 3), False), ((0, 0), True)):
            profile[2:] = actions
            assert (games._generic_search(game, (0, 1), tuple(profile), kind)
                    is not None) == want
            assert game.deviation_test((0, 1), profile, kind) == want

    # a profile is matched by value: a second tuple with the same actions
    # reads the answers the first one found
    def test_equal_profile_tuples_get_the_same_answers(self):
        inst = srsg.SrsgInstance(3, 5, 2, srsg.CostFn.linear(5))
        game = srsg.induced_game(inst)
        first = srsg.assignment_to_profile(inst, ((0, 0, 1, 1, 2), (0, 1, 0, 1, 2)))
        second = tuple(list(first))
        assert first == second and first is not second
        for kind in (games.STRICT, games.WEAK):
            for r in (1, 2, 3):
                for members in itertools.combinations(range(inst.n), r):
                    want = games._generic_search(game, members, first, kind) is not None
                    assert game.deviation_test(members, first, kind) == want
                    assert game.deviation_test(members, second, kind) == want

    # the memo is a one-object snapshot, read once per call, and `utility`
    # keeps no state but the encoding dicts, so threads sharing a game never
    # pair one profile's loads with another's
    def test_threads_sharing_a_game_get_fresh_answers(self):
        inst = srsg.SrsgInstance(3, 5, 2, srsg.CostFn.linear(5))
        game = srsg.induced_game(inst)
        rng = random.Random(5)
        profiles = [tuple(rng.randrange(9) for _ in range(5)) for _ in range(8)]
        kinds = (games.STRICT, games.WEAK)
        utilities = {(p, a): -total_cost(inst, profile_to_assignment(inst, p), a)
                     for p in profiles for a in range(5)}
        answers = {(p, kind): games._generic_search(game, (0, 1), p, kind) is not None
                   for p in profiles for kind in kinds}
        wrong = []

        def work(seed):
            r = random.Random(seed)
            for _ in range(3000):
                p, a, kind = r.choice(profiles), r.randrange(5), r.choice(kinds)
                if game.utility(a, p) != utilities[p, a]:
                    wrong.append(("utility", p, a))
                if game.deviation_test((0, 1), p, kind) != answers[p, kind]:
                    wrong.append(("hook", p, kind))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


def maximal(vectors) -> set:
    """The vectors no other one of `vectors` is entrywise at least."""
    return {v for v in vectors
            if not any(w != v and all(a >= b for a, b in zip(w, v)) for w in vectors)}


class TestParetoMax:
    @settings(max_examples=200)
    @given(size=st.integers(1, 4), data=st.data())
    @example(size=2, data=None)
    def test_keeps_one_copy_of_each_maximal_vector(self, size, data):
        if data is None:
            vectors = [(1, 0), (0, 1), (1, 0), (0, 0), (0, 1), (1, 0)]
        else:
            pool = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * size),
                                      min_size=1, max_size=8))
            vectors = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=24))
        kept = srsg._pareto_max(vectors)
        assert len(kept) == len(set(kept))
        assert set(kept) == maximal(vectors)


class TestOnDemandEncoding:
    """srsg(4,6,12) has 4^12 = 16.7 M actions per agent; the game encodes
    only the actions that calls bring."""

    BIG = srsg.SrsgInstance(4, 6, 12, srsg.CostFn.linear(6))

    def test_loading_builds_nothing_per_action(self):
        doc = srsg.game_document(self.BIG, {"repeat": srsg.build_repeat_ne(self.BIG)})
        tracemalloc.start()
        try:
            game, profiles = games.game_from_document(doc, srsg.GENERATOR_RESOLVERS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # one entry per action would take gigabytes
        profile = profiles["repeat"]
        assignment = profile_to_assignment(self.BIG, profile)
        for agent in range(6):
            assert game.utility(agent, profile) == -total_cost(self.BIG, assignment, agent)
        assert games.score_vector(game, profile, games.WEAK, r_max=1).counts == (0,)

    @pytest.mark.parametrize("action", [4 ** 12, -1])
    def test_action_outside_the_range_is_refused(self, action):
        game = srsg.induced_game(self.BIG)
        profile = (action,) + (0,) * 5
        with pytest.raises(InputError, match="outside range"):
            game.utility(1, profile)
        with pytest.raises(InputError, match="outside range"):
            game.deviation_test((1,), profile, games.WEAK)


class TestGenericScanWork:
    """The generic scan's utility calls on srsg(4,6,2) up to r = 3, pinned,
    so that a faster scan cannot come from doing less work."""

    @pytest.mark.parametrize("assignment,kind,counts,calls", [
        (REPEAT, games.STRICT, (0, 2, 0), 104_694),
        (REPEAT, games.WEAK, (0, 2, 8), 92_250),
        (ROTATE, games.STRICT, (0, 0, 0), 101_608),
        (ROTATE, games.WEAK, (0, 4, 14), 49_103),
    ], ids=["repeat-strict", "repeat-weak", "rotate-strict", "rotate-weak"])
    def test_utility_calls_are_pinned(self, small_instance, small_game, assignment,
                                      kind, counts, calls):
        made = 0

        def utility(agent, profile):
            nonlocal made
            made += 1
            return small_game.utility(agent, profile)

        generic = games.FiniteGame(small_game.player_count, small_game.action_counts,
                                   utility)
        profile = srsg.assignment_to_profile(small_instance, assignment)
        assert games.score_vector(generic, profile, kind, r_max=3).counts == counts
        assert made == calls

import itertools
import json
import random
from fractions import Fraction
from functools import reduce
from operator import getitem

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalstab import auction, games, srsg
from coalstab.errors import BudgetExceededError, InputError
from conftest import (BAD_DOCUMENTS, REPEAT, ROTATE, SPLIT, VALID_DOCUMENTS,
                      is_nash_profile)


def coordination_game():
    """2x2 game where mutual cooperation (action 0) dominates mutual defection."""
    payoffs = {
        (0, 0): (3, 3),
        (1, 1): (1, 1),
        (0, 1): (0, 5),
        (1, 0): (5, 0),
    }
    return games.FiniteGame(2, (2, 2), lambda i, p: payoffs[p][i])


JSON_SCALARS = {type(None): st.none(), bool: st.booleans(), int: st.integers(),
                float: st.floats(allow_nan=False, allow_infinity=False),
                str: st.text(max_size=4)}
JSON_VALUES = st.recursive(
    st.one_of(*JSON_SCALARS.values()),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4)
JSON_TYPES = {**JSON_SCALARS, list: st.lists(JSON_VALUES, max_size=3),
              dict: st.dictionaries(st.text(max_size=3), JSON_VALUES, max_size=3)}


def json_paths(value, path=()):
    """The path of every value inside a JSON value, its own (()) first."""
    yield path
    if isinstance(value, dict):
        children = value.items()
    else:
        children = enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from json_paths(child, path + (key,))


# Every value of each valid document, the document itself included, as a
# path into a one-item list that holds the document.
DOCUMENT_EDITS = [(name, path) for name, make in VALID_DOCUMENTS.items()
                  for path in json_paths([make()]) if path]


def random_game(rng, n=3, actions=3):
    table = {}

    def utility(i, profile):
        key = (i, profile)
        if key not in table:
            table[key] = rng.randrange(-5, 6)
        return table[key]

    return games.FiniteGame(n, (actions,) * n, utility)


class TestFindDeviation:
    def test_joint_escape_from_mutual_defection(self):
        game = coordination_game()
        assert games.find_deviation(game, (1, 1), (0, 1), games.STRICT) == (0, 0)

    def test_single_best_responder_has_no_deviation(self):
        game = coordination_game()
        # against a cooperator, defecting is already the best response
        assert games.find_deviation(game, (1, 0), (0,), games.STRICT) is None

    def test_pair_trade_in_small_instance(self, small_instance, small_game):
        profile = srsg.assignment_to_profile(small_instance, REPEAT)
        witness = games.find_deviation(small_game, profile, (0, 1), games.STRICT)
        assert witness is not None
        # replaying the witness must strictly lower both members' cost
        new = list(profile)
        new[0], new[1] = witness
        for agent in (0, 1):
            assert small_game.utility(agent, tuple(new)) > small_game.utility(agent, profile)

    def test_witness_is_lexicographically_first(self):
        rng = random.Random(11)
        for _ in range(20):
            game = random_game(rng)
            profile = tuple(rng.randrange(3) for _ in range(3))
            members = (0, 2)
            witness = games.find_deviation(game, profile, members, games.WEAK)
            scan = games._generic_search(game, members, profile, games.WEAK)
            assert witness == scan

    def test_strict_implies_weak(self):
        rng = random.Random(5)
        for _ in range(30):
            game = random_game(rng)
            profile = tuple(rng.randrange(3) for _ in range(3))
            members = tuple(sorted(rng.sample(range(3), 2)))
            if games.has_deviation(game, profile, members, games.STRICT):
                assert games.has_deviation(game, profile, members, games.WEAK)

    def test_budget_exceeded_is_distinct_from_no_deviation(self, small_game,
                                                           small_instance):
        profile = srsg.assignment_to_profile(small_instance, ROTATE)
        with pytest.raises(BudgetExceededError) as info:
            games.find_deviation(small_game, profile, (0, 1), budget=10)
        assert str(info.value) == "search space of 256 joint actions exceeds budget 10"

    def test_negative_budget_is_bad_input(self, small_game, monkeypatch):
        profile = (0,) * small_game.player_count
        with pytest.raises(InputError):
            games.find_deviation(small_game, profile, (0, 1), budget=-5)
        monkeypatch.setenv("COALSTAB_BUDGET", "-1")
        with pytest.raises(InputError):
            games.search_budget()
        assert games.search_budget(0) == 0  # a zero budget still means no search
        with pytest.raises(BudgetExceededError):
            games.find_deviation(small_game, profile, (0, 1), budget=0)

    def test_non_integer_budget_env_is_bad_input(self, monkeypatch):
        for raw in ("abc", "2.5", "1e3"):
            monkeypatch.setenv("COALSTAB_BUDGET", raw)
            with pytest.raises(InputError, match="COALSTAB_BUDGET"):
                games.search_budget()
            assert games.search_budget(7) == 7  # the argument is read first
        monkeypatch.setenv("COALSTAB_BUDGET", "")
        assert games.search_budget() == games.DEFAULT_SEARCH_BUDGET
        monkeypatch.setenv("COALSTAB_BUDGET", " 12 ")
        assert games.search_budget() == 12

    @settings(max_examples=300)
    @given(data=st.data(), seed=st.integers(0, 2**32),
           kind=st.sampled_from((games.STRICT, games.WEAK)))
    def test_witness_matches_brute_force(self, data, seed, kind):
        n = data.draw(st.integers(2, 5), label="players")
        counts = tuple(data.draw(st.lists(st.integers(1, 4), min_size=n,
                                          max_size=n), label="action_counts"))
        rng = random.Random(seed)
        table = {p: tuple(rng.randrange(3) for _ in range(n))  # ties are common
                 for p in itertools.product(*map(range, counts))}
        game = games.FiniteGame(n, counts, lambda i, p: table[p][i])
        profile = tuple(data.draw(st.integers(0, c - 1), label=f"action {i}")
                        for i, c in enumerate(counts))
        members = tuple(sorted(data.draw(
            st.sets(st.integers(0, n - 1), min_size=1), label="coalition")))

        expected = None
        base = table[profile]
        for joint in itertools.product(*(range(counts[i]) for i in members)):
            moved = list(profile)
            for i, a in zip(members, joint):
                moved[i] = a
            now = table[tuple(moved)]
            gains = [now[i] - base[i] for i in members]
            if kind == games.STRICT:
                deviates = all(g > 0 for g in gains)
            else:
                deviates = all(g >= 0 for g in gains) and any(g > 0 for g in gains)
            if deviates:
                expected = joint
                break

        assert games.find_deviation(game, profile, members, kind) == expected
        assert games.has_deviation(game, profile, members, kind) == \
            (expected is not None)

    def test_bad_kind_rejected_before_any_work(self):
        def utility(i, profile):
            raise AssertionError("no utility call expected")

        game = games.FiniteGame(2, (3, 3), utility)
        # budget 1 is below the 9 joint actions: the kind is checked first
        with pytest.raises(InputError):
            games.find_deviation(game, (0, 0), (0, 1), "sideways", budget=1)

    @pytest.mark.parametrize("profile,coalition", [
        ((0, 0, 0), (0, 1)),       # profile too short
        ((0,) * 6, (1, 0)),        # unsorted coalition
        ((0,) * 6, ()),            # empty coalition
        ((0,) * 6, (0, 9)),        # player out of range
        ((0,) * 6, ("a", 1)),      # members that do not sort against ints
        ((0,) * 6, (None, 1)),
        ((0,) * 6, ((0,), 1)),
    ])
    def test_validation_errors(self, small_game, profile, coalition):
        with pytest.raises(InputError):
            games.find_deviation(small_game, profile, coalition)


@pytest.mark.parametrize("call", [
    lambda: auction.is_potential_coalition((True, 2), 2, 3),
    lambda: coordination_game().validate_coalition((False, True)),
    lambda: coordination_game().validate_profile((True, False)),
], ids=["auction-rank", "coalition-member", "profile-action"])
def test_bool_is_not_an_index(call):
    # isinstance(True, int) holds, so each check names bool explicitly
    with pytest.raises(InputError):
        call()


class TestFirstDeviation:
    @settings(max_examples=400)
    @given(data=st.data(), kind=st.sampled_from((games.STRICT, games.WEAK)))
    def test_matches_definition_and_stops_at_first_failing_member(self, data, kind):
        size = data.draw(st.integers(1, 4), label="members")
        level = st.integers(0, 2)  # three utility levels: ties are frequent
        row = st.lists(level, min_size=size, max_size=size)
        base = data.draw(row, label="base")
        table = data.draw(st.lists(row, max_size=6), label="candidates")
        calls = []

        def utility(i, candidate):
            calls.append((candidate, i))
            return table[candidate][i]

        def fails(new, old):
            return new <= old if kind == games.STRICT else new < old

        def deviates(utils):
            if kind == games.STRICT:
                return all(new > old for new, old in zip(utils, base))
            return (all(new >= old for new, old in zip(utils, base))
                    and any(new > old for new, old in zip(utils, base)))

        expected = next((c for c, utils in enumerate(table) if deviates(utils)), None)
        found = games.first_deviation(range(len(table)), range(size), base,
                                      utility, kind)
        assert found == expected
        scanned = len(table) if expected is None else expected + 1
        expected_calls = []
        for c in range(scanned):
            for i in range(size):
                expected_calls.append((c, i))
                if fails(table[c][i], base[i]):
                    break
        assert calls == expected_calls



class TestScoreVector:
    def test_repeat_profile_pair_count(self, small_instance, small_game):
        profile = srsg.assignment_to_profile(small_instance, REPEAT)
        assert games.score_vector(small_game, profile, games.STRICT, 2).counts == (0, 2)

    def test_budget_cut_carries_finished_sizes(self, small_instance, small_game):
        profile = srsg.assignment_to_profile(small_instance, REPEAT)
        with pytest.raises(BudgetExceededError) as info:
            games.score_vector(small_game, profile, games.STRICT, 3, budget=300)
        assert info.value.partial.counts == (0, 2)

    def test_split_profile_counts(self, small_instance, small_game):
        profile = srsg.assignment_to_profile(small_instance, SPLIT)
        vector = games.score_vector(small_game, profile, games.STRICT, 4)
        assert vector.counts == (0, 0, 0, 1)

    def test_rotate_profile_fully_stable(self, small_instance, small_game):
        profile = srsg.assignment_to_profile(small_instance, ROTATE)
        vector = games.score_vector(small_game, profile, games.STRICT, 4)
        assert vector.counts == (0, 0, 0, 0)

    def test_single_size_counts_match_best_response_scan(self):
        rng = random.Random(23)
        for _ in range(25):
            game = random_game(rng)
            profile = tuple(rng.randrange(3) for _ in range(3))
            vector = games.score_vector(game, profile, games.STRICT, 1)
            assert (vector.counts[0] == 0) == is_nash_profile(game, profile)

    def test_weak_counts_dominate_strict_counts(self):
        rng = random.Random(31)
        for _ in range(10):
            game = random_game(rng)
            profile = tuple(rng.randrange(3) for _ in range(3))
            strict = games.score_vector(game, profile, games.STRICT)
            weak = games.score_vector(game, profile, games.WEAK)
            assert all(w >= s for w, s in zip(weak.counts, strict.counts))

    def test_dominated_dummy_action_never_hides_deviations(self):
        rng = random.Random(41)
        for _ in range(10):
            game = random_game(rng)
            profile = tuple(rng.randrange(3) for _ in range(3))
            base = games.score_vector(game, profile, games.STRICT)

            def extended_utility(i, p, _game=game):
                clamped = tuple(min(a, 2) for a in p)
                value = _game.utility(i, clamped)
                return value - 100 if p[i] == 3 else value

            bigger = games.FiniteGame(3, (4, 4, 4), extended_utility)
            extended = games.score_vector(bigger, profile, games.STRICT)
            assert all(b >= a for a, b in zip(base.counts, extended.counts))

    def test_rmax_validation(self, small_game):
        with pytest.raises(InputError):
            games.score_vector(small_game, (0,) * 6, games.STRICT, 7)

    def test_counts_capped_by_binomials(self):
        with pytest.raises(InputError):
            games.ScoreVector(games.STRICT, (2,), 1)


class TestCompareScores:
    def test_rotate_more_stable_than_split(self, small_instance, small_game):
        split = games.score_vector(
            small_game, srsg.assignment_to_profile(small_instance, SPLIT),
            games.STRICT, 4)
        rotate = games.score_vector(
            small_game, srsg.assignment_to_profile(small_instance, ROTATE),
            games.STRICT, 4)
        assert games.compare_scores(rotate, split) == games.MORE_STABLE
        assert games.compare_scores(split, rotate) == games.LESS_STABLE

    def test_identical_vectors_are_equal(self):
        v = games.ScoreVector(games.STRICT, (0, 2, 1), 5)
        assert games.compare_scores(v, v) == games.EQUAL

    def test_first_difference_decides(self):
        a = games.ScoreVector(games.WEAK, (0, 3, 0), 9)
        b = games.ScoreVector(games.WEAK, (0, 2, 9), 9)
        assert games.compare_scores(a, b) == games.LESS_STABLE

    def test_mismatched_inputs_rejected(self):
        a = games.ScoreVector(games.WEAK, (0, 1), 4)
        b = games.ScoreVector(games.STRICT, (0, 1), 4)
        with pytest.raises(InputError):
            games.compare_scores(a, b)
        with pytest.raises(InputError):
            games.compare_scores(a, games.ScoreVector(games.WEAK, (0,), 4))

    def test_total_preorder_on_random_vectors(self):
        rng = random.Random(3)
        vectors = [games.ScoreVector(games.STRICT,
                                     tuple(rng.randrange(4) for _ in range(3)), 5)
                   for _ in range(12)]
        for a in vectors:
            for b in vectors:
                ab = games.compare_scores(a, b)
                if ab == games.EQUAL:
                    assert a.counts == b.counts
                for c in vectors:
                    if (ab != games.LESS_STABLE
                            and games.compare_scores(b, c) != games.LESS_STABLE):
                        assert games.compare_scores(a, c) != games.LESS_STABLE


class TestClassify:
    def test_fully_stable_profile_flags(self, small_instance, small_game):
        profile = srsg.assignment_to_profile(small_instance, ROTATE)
        strict = games.score_vector(small_game, profile, games.STRICT)
        weak = games.score_vector(small_game, profile, games.WEAK)
        flags = games.classify(strict, weak)
        assert flags.is_nash
        assert flags.se_level == 6
        assert flags.sse_level == 1  # a pair always has a one-sided move here
        assert flags.is_pareto_efficient

    def test_repeat_profile_is_weakly_stable_only_to_singletons(
            self, small_instance, small_game):
        profile = srsg.assignment_to_profile(small_instance, REPEAT)
        strict = games.score_vector(small_game, profile, games.STRICT)
        weak = games.score_vector(small_game, profile, games.WEAK)
        flags = games.classify(strict, weak)
        assert flags.is_nash
        assert flags.se_level == 1

    def test_all_zero_vectors_max_out_every_flag(self):
        strict = games.ScoreVector(games.STRICT, (0, 0, 0), 3)
        weak = games.ScoreVector(games.WEAK, (0, 0, 0), 3)
        flags = games.classify(weak, strict)  # argument order is free
        assert flags.is_nash and flags.is_pareto_efficient
        assert flags.se_level == 3 and flags.sse_level == 3

    def test_partial_vectors_rejected(self):
        strict = games.ScoreVector(games.STRICT, (0, 0), 3)
        weak = games.ScoreVector(games.WEAK, (0, 0, 0), 3)
        with pytest.raises(InputError):
            games.classify(strict, weak)


class TestGameDocuments:
    def test_table_round_trip(self):
        game = coordination_game()
        doc = games.game_to_document(game, {"defect": (1, 1)})
        rebuilt, profiles = games.game_from_document(doc)
        assert profiles == {"defect": (1, 1)}
        for profile in ((0, 0), (0, 1), (1, 0), (1, 1)):
            for i in range(2):
                assert rebuilt.utility(i, profile) == game.utility(i, profile)

    def test_generator_documents_resolve(self, small_instance):
        doc = srsg.game_document(small_instance, {"repeat": REPEAT})
        game, profiles = games.game_from_document(doc, srsg.GENERATOR_RESOLVERS)
        vector = games.score_vector(game, profiles["repeat"], games.STRICT, 2)
        assert vector.counts == (0, 2)

    def test_incomplete_table_rejected(self):
        game = coordination_game()
        doc = games.game_to_document(game)
        doc["utilities"]["entries"].pop()
        with pytest.raises(InputError):
            games.game_from_document(doc)

    def test_unknown_generator_rejected(self):
        doc = {"format": games.GAME_FORMAT, "players": 2, "action_counts": [2, 2],
               "utilities": {"kind": "generator", "name": "mystery"}}
        with pytest.raises(InputError):
            games.game_from_document(doc)

    @pytest.mark.parametrize("name", sorted(BAD_DOCUMENTS))
    def test_malformed_documents_rejected_at_load(self, name):
        with pytest.raises(InputError):
            games.game_from_document(BAD_DOCUMENTS[name], srsg.GENERATOR_RESOLVERS)

    @settings(max_examples=80)
    @given(data=st.data())
    def test_random_table_games_round_trip(self, data):
        action_counts = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1,
                                                 max_size=3), label="actions"))
        n = len(action_counts)
        rational = st.fractions(min_value=-50, max_value=50, max_denominator=12)
        table = {p: tuple(data.draw(st.lists(rational, min_size=n, max_size=n)))
                 for p in itertools.product(*(range(c) for c in action_counts))}
        game = games.FiniteGame(n, action_counts, lambda i, p: table[p][i])
        profile = st.tuples(*(st.integers(0, c - 1) for c in action_counts))
        named = data.draw(st.dictionaries(st.text("abcxyz", min_size=1, max_size=4),
                                          profile, max_size=3), label="profiles")
        doc = json.loads(json.dumps(games.game_to_document(game, named)))
        rebuilt, profiles = games.game_from_document(doc)
        assert rebuilt.action_counts == action_counts
        assert profiles == named
        for p, payoffs in table.items():
            assert tuple(rebuilt.utility(i, p) for i in range(n)) == payoffs

    @pytest.mark.parametrize("name, path", DOCUMENT_EDITS, ids=[
        f"{name}:{'/'.join(map(str, path[1:])) or 'document'}"
        for name, path in DOCUMENT_EDITS])
    @settings(max_examples=5)
    @given(data=st.data())
    def test_one_edit_loads_or_is_bad_input(self, name, path, data):
        # the value at `path` deleted (when it has a key) or replaced by a
        # value of each other JSON type: every edit loads or is an InputError
        *trail, key = path
        for edit in ("delete", *JSON_TYPES):
            box = [VALID_DOCUMENTS[name]()]
            parent = reduce(getitem, trail, box)
            if edit == "delete" and isinstance(parent, dict):
                del parent[key]
            elif edit not in ("delete", type(parent[key])):
                parent[key] = data.draw(JSON_TYPES[edit], label=edit.__name__)
            else:
                continue
            try:
                games.game_from_document(box[0], srsg.GENERATOR_RESOLVERS)
            except InputError:
                pass

    def test_rational_strings_round_trip(self):
        assert games.rational_from_str("3/4") == Fraction(3, 4)
        assert games.rational_from_str("5/1") == 5
        assert games.rational_to_str(Fraction(-7, 2)) == "-7/2"
        for bad in ("1/0", "abc", "", None):
            with pytest.raises(InputError, match="not a rational"):
                games.rational_from_str(bad)

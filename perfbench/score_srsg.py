"""score-srsg: the coalition engine of `games` and the srsg search factory.

Score vectors enumerate every coalition of every size and search its joint
actions, through the srsg depth-first factory or, for games without one,
through the generic utility-driven scan.  Profiles with shared actions
(`repeat`) and with all-distinct actions (`split`, `rotate`, most random
equilibria) are both present, because an orbit reduction over players with
equal actions can only help the first kind.  This workload never calls
`auction` or `reserve`.

Fixed inputs: srsg(4,6,2) with its three named equilibria, the repeat
equilibria of srsg(4,10,2) and srsg(5,12,2), and the acceptance suite's
pair-count cells.  Seeded inputs: random equilibria of the two larger
instances and a random exact-rational table game.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb

from coalstab import games, srsg

from harness import Task

# srsg(4,6,2) and its named equilibria (one row per step)
C01 = srsg.SrsgInstance(4, 6, 2, srsg.CostFn.linear(6))
REPEAT = ((0, 0, 1, 1, 2, 3), (0, 0, 1, 1, 2, 3))
SPLIT = ((0, 0, 1, 1, 2, 3), (0, 1, 0, 1, 2, 3))
ROTATE = ((0, 0, 1, 1, 2, 3), (0, 1, 2, 3, 0, 1))
NAMED = {"repeat": REPEAT, "split": SPLIT, "rotate": ROTATE}
# (profile, kind, r_max) scored on srsg(4,6,2).  The weak grand-coalition
# scans are left out: each is one 3-second search, and the machine's speed
# changes within seconds, so the speed probes around a task that long cannot
# normalise it (see harness).
C01_SCORES = (("repeat", games.STRICT, 6), ("repeat", games.WEAK, 5),
              ("split", games.STRICT, 6), ("split", games.WEAK, 5),
              ("rotate", games.STRICT, 6), ("rotate", games.WEAK, 5))
GENERIC_R_MAX = 3
# larger instances: (m, n, k, seeded random equilibria), scored up to r = 3
LARGER = ((4, 10, 2, 2), (5, 12, 2, 1))
LARGER_R_MAX = 3
TABLE_PLAYERS, TABLE_ACTIONS = 4, 3
C02_M = range(2, 6)

SV = "games.score_vector"
PAIRS = "srsg.count_pair_deviations"


def orbit_reps(profile, r_max: int) -> int:
    """Coalitions up to relabelling players with equal actions: the number
    of class-count vectors (members taken from each action class) per size,
    summed over sizes 1..r_max."""
    poly = [1]
    for size in Counter(profile).values():
        grown = [0] * (len(poly) + size)
        for i, c in enumerate(poly):
            for t in range(size + 1):
                grown[i + t] += c
        poly = grown
    return sum(poly[1:r_max + 1])


def joint_space(action_counts, r_max: int) -> int:
    """Sum over coalitions of size <= r_max of their joint action spaces."""
    elem = [1] + [0] * r_max
    for a in action_counts:
        for r in range(r_max, 0, -1):
            elem[r] += a * elem[r - 1]
    return sum(elem[1:])


def _score_work(layer, game, profile, r_max):
    n = game.player_count
    return {layer + ".coalitions": sum(comb(n, r) for r in range(1, r_max + 1)),
            layer + ".joint_space": joint_space(game.action_counts, r_max),
            layer + ".orbit_reps": orbit_reps(profile, r_max)}


def _score_task(task_id, game, profile, kind, r_max, check, generic=None):
    """`generic` is the (plain, counted) pair of factory-less games; the
    counted one runs only while tracing."""
    if generic is None:
        layer = f"{SV}.{'distinct' if len(set(profile)) == len(profile) else 'shared'}"
        call = lambda: games.score_vector(game, profile, kind, r_max)  # noqa: E731
    else:
        layer = f"{SV}.generic"
        plain, counted, rec = generic
        call = lambda: games.score_vector(  # noqa: E731
            counted if rec.tracing else plain, profile, kind, r_max)
    return Task(task_id, layer, call, check, _score_work(layer, game, profile, r_max))


def _pinned(expected):
    def check(vector, rec):
        got = list(vector.counts)
        return None if got == list(expected) else f"score {got}, pinned {expected}"
    return check


def _structural(inst, assignment, rec):
    rec.count(PAIRS + ".structural.calls")
    rec.count(PAIRS + ".structural.pairs", comb(inst.n, 2))
    with rec.span(PAIRS + ".structural"):
        return srsg.count_pair_deviations(inst, assignment)


def _equilibrium_check(inst, assignment, kind):
    """Pair rule: at an equilibrium no single player deviates, and the strict
    pair count equals the structural count (weak counts are at least it)."""
    def check(vector, rec):
        pairs = _structural(inst, assignment, rec)
        counts = vector.counts
        if counts[0] != 0:
            return f"{counts[0]} deviating singletons at an equilibrium"
        if kind == games.STRICT and counts[1] != pairs:
            return f"strict pairs {counts[1]}, structural rule {pairs}"
        if kind == games.WEAK and counts[1] < pairs:
            return f"weak pairs {counts[1]} below strict structural {pairs}"
        return None
    return check


def _counting(utility, rec):
    def counted(player, profile):
        rec.count("games.utility.calls")
        return utility(player, profile)
    return counted


def _reference_scores(table, action_counts, profile, r_max):
    """Independent brute force over the explicit table: per kind, the number
    of coalitions of each size with an improving joint action."""
    n = len(action_counts)
    out = {games.STRICT: [], games.WEAK: []}
    for r in range(1, r_max + 1):
        hits = {games.STRICT: 0, games.WEAK: 0}
        for members in itertools.combinations(range(n), r):
            base = [table[profile][i] for i in members]
            found = set()
            for joint in itertools.product(*(range(action_counts[i]) for i in members)):
                moved = list(profile)
                for i, a in zip(members, joint):
                    moved[i] = a
                now = [table[tuple(moved)][i] for i in members]
                if all(u > b for u, b in zip(now, base)):
                    found.add(games.STRICT)
                if all(u >= b for u, b in zip(now, base)) and now != base:
                    found.add(games.WEAK)
            for kind in found:
                hits[kind] += 1
        for kind in out:
            out[kind].append(hits[kind])
    return out


def _table_game(rng):
    """Random exact-rational table game as an exchange document, its table
    and a random profile."""
    counts = (TABLE_ACTIONS,) * TABLE_PLAYERS
    table = {}
    for profile in itertools.product(*(range(c) for c in counts)):
        table[profile] = tuple(Fraction(rng.randrange(-12, 13), rng.randrange(1, 4))
                               for _ in counts)
    doc = {"format": games.GAME_FORMAT, "version": 1, "players": TABLE_PLAYERS,
           "action_counts": list(counts),
           "utilities": {"kind": "table", "entries": [
               {"profile": list(p), "payoffs": [games.rational_to_str(u) for u in us]}
               for p, us in table.items()]}}
    game, _ = games.game_from_document(doc)
    profile = tuple(rng.randrange(c) for c in counts)
    return game, table, profile


def _c02_check(inst, assignment):
    expected = inst.q * comb(inst.full_load, 2)

    def check(brute, rec):
        structural = _structural(inst, assignment, rec)
        if not brute == structural == expected:
            return f"bruteforce {brute}, structural {structural}, closed form {expected}"
        return None
    return check


def build(seed, pins, rec, ctx):
    rng = random.Random(seed)
    scores = pins["scores"]
    tasks = []

    game = rec.setup_call("srsg.induced_game", lambda: srsg.induced_game(C01))
    for name, kind, r_max in C01_SCORES:
        profile = srsg.assignment_to_profile(C01, NAMED[name])
        expected = scores[f"c01.{name}.{kind}.r{r_max}"]
        tasks.append(_score_task(f"c01.{name}.{kind}", game, profile, kind, r_max,
                                 _pinned(expected)))

    plain = games.FiniteGame(game.player_count, game.action_counts, game.utility)
    counted = games.FiniteGame(game.player_count, game.action_counts,
                               _counting(game.utility, rec))
    for name in ("repeat", "rotate"):
        profile = srsg.assignment_to_profile(C01, NAMED[name])
        for kind in (games.STRICT, games.WEAK):
            full = next(scores[f"c01.{n}.{k}.r{r}"] for n, k, r in C01_SCORES
                        if (n, k) == (name, kind))
            tasks.append(_score_task(f"generic.{name}.{kind}", game, profile, kind,
                                     GENERIC_R_MAX, _pinned(full[:GENERIC_R_MAX]),
                                     (plain, counted, rec)))

    for m, n, k, randoms in LARGER:
        inst = srsg.SrsgInstance(m, n, k, srsg.CostFn.linear(n))
        big = rec.setup_call("srsg.induced_game", lambda i=inst: srsg.induced_game(i))
        assignments = [("repeat", srsg.build_repeat_ne(inst))]
        assignments += [(f"random{i}", srsg.sample_random_ne(inst, rng.randrange(2**32)))
                        for i in range(randoms)]
        for label, assignment in assignments:
            profile = srsg.assignment_to_profile(inst, assignment)
            for kind in (games.STRICT, games.WEAK):
                tasks.append(_score_task(
                    f"srsg({m},{n},{k}).{label}.{kind}", big, profile, kind,
                    LARGER_R_MAX, _equilibrium_check(inst, assignment, kind)))

    table_game, table, profile = _table_game(rng)
    reference = _reference_scores(table, table_game.action_counts, profile,
                                  TABLE_PLAYERS)
    counted_table = games.FiniteGame(table_game.player_count, table_game.action_counts,
                                     _counting(table_game.utility, rec))
    for kind in (games.STRICT, games.WEAK):
        tasks.append(_score_task(f"table.{kind}", table_game, profile, kind,
                                 TABLE_PLAYERS, _pinned(reference[kind]),
                                 (table_game, counted_table, rec)))

    for m in C02_M:
        for n in range(m + 1, 4 * m + 1):
            inst = srsg.SrsgInstance(m, n, 2, srsg.CostFn.linear(n))
            assignment = srsg.build_repeat_ne(inst)
            tasks.append(Task(f"c02.{m}.{n}", PAIRS + ".bruteforce",
                              lambda i=inst, a=assignment:
                                  srsg.count_pair_deviations(i, a, "bruteforce"),
                              _c02_check(inst, assignment),
                              {PAIRS + ".bruteforce.pairs": comb(n, 2)}))
    return tasks

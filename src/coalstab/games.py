"""Finite games with exhaustive coalition-deviation search.

A profile's stability is summarised by counting, for each coalition size r,
how many of the binomial(n, r) coalitions can jointly change their actions so
that every member strictly gains ("strict" deviations) or no member loses and
at least one gains ("weak" deviations).  All payoff comparisons are exact:
utilities are ints or `fractions.Fraction`, never floats, because the weak
notion is knife-edge (>= everywhere with one >).
"""

import itertools
import json
import os
from fractions import Fraction
from math import comb, lcm, prod
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import BudgetExceededError, InputError
from .records import Record

Rational = Union[int, Fraction]
Profile = tuple  # tuple[int, ...], one action index per player
Coalition = tuple  # tuple[int, ...], strictly increasing player indices

STRICT = "strict"
WEAK = "weak"
_KINDS = (STRICT, WEAK)

MORE_STABLE = "more_stable"
LESS_STABLE = "less_stable"
EQUAL = "equal"

#: Default cap on the number of joint actions an exhaustive search may visit.
DEFAULT_SEARCH_BUDGET = 10**8
_BUDGET_ENV = "COALSTAB_BUDGET"


def env_int(name: str, default: int) -> int:
    """The integer in environment variable `name`, or `default` when it is
    unset or empty; any other text is an InputError that names it."""
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"{name} must be an integer, got {raw!r}") from None


def search_budget(budget: Optional[int] = None) -> int:
    """Resolve the effective search budget (argument > env > default); a
    negative budget, one that is no int (a bool or a float), or an
    environment value that is no integer, is an InputError."""
    if budget is None:
        budget = env_int(_BUDGET_ENV, DEFAULT_SEARCH_BUDGET)
    if type(budget) is not int:  # nor a bool
        raise InputError(f"search budget must be an int, got {budget!r}")
    if budget < 0:
        raise InputError(f"search budget must be nonnegative, got {budget}")
    return budget


def check_budget(space: int, budget: Optional[int] = None,
                 unit: str = "joint actions") -> None:
    """Raise BudgetExceededError when a search over `space` items (named
    `unit` in the message) would exceed the effective budget; every
    exhaustive search calls this before it starts."""
    limit = search_budget(budget)
    if space > limit:
        raise BudgetExceededError(space, limit, unit)


def exact_rational(value, name: str) -> Fraction:
    """`value` as a Fraction when it is an int, a Fraction or rational text
    (`rational_from_str`); floats, bools and anything else are an
    InputError that names `name`, since a float would carry its binary
    rounding into an exact computation."""
    if isinstance(value, str):
        value = rational_from_str(value)
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise InputError(f"{name} must be an int, a Fraction or rational "
                         f"text, got {value!r}")
    return Fraction(value)


def scaled(values) -> list:
    """Rationals (ints or `Fraction`s) times the lcm of their denominators:
    ints in the same ratios."""
    scale = lcm(*(f.denominator for f in values))
    return [f.numerator * (scale // f.denominator) for f in values]


def check_kind(kind: str) -> None:
    """Raise InputError unless `kind` is STRICT or WEAK."""
    if kind not in _KINDS:
        raise InputError(f"kind must be one of {_KINDS}")


class FiniteGame(Record):
    """A normal-form game given by an exact utility oracle.

    `utility(i, profile)` must be defined for every player `i` and every
    profile with `profile[j] < action_counts[j]`, must be deterministic, and
    must return an int or Fraction.

    `deviation_test` is an optional decision hook.  When set, it is called as
    `deviation_test(members, profile, kind) -> bool` with a validated
    coalition, profile and kind, and must say exactly whether the coalition
    has a deviation of that kind: its answer must equal "the generic scan
    over the coalition's joint actions finds a witness" on every input (the
    package's tests cross-check the two).  It decides only; witnesses always
    come from the generic scan.
    """

    player_count: int
    action_counts: tuple
    utility: Callable[[int, Profile], Rational]
    deviation_test: Optional[Callable] = None

    def __post_init__(self):
        if self.player_count < 1:
            raise InputError("player_count must be positive")
        counts = tuple(self.action_counts)
        object.__setattr__(self, "action_counts", counts)
        if len(counts) != self.player_count:
            raise InputError("action_counts length must equal player_count")
        if any(c < 1 for c in counts):
            raise InputError("every player needs at least one action")

    @property
    def n(self) -> int:
        return self.player_count

    def validate_profile(self, profile: Sequence) -> Profile:
        profile = tuple(profile)
        if len(profile) != self.player_count:
            raise InputError(
                f"profile has {len(profile)} entries, expected {self.player_count}"
            )
        for i, (a, c) in enumerate(zip(profile, self.action_counts)):
            if not (type(a) is int and 0 <= a < c):  # a bool is not an action
                raise InputError(f"action {a!r} out of range for player {i}")
        return profile

    def validate_coalition(self, members: Iterable) -> Coalition:
        members = tuple(members)
        if not members:
            raise InputError("coalition must be nonempty")
        for i in members:  # first: sorting a str or None among ints raises TypeError
            if not (type(i) is int and 0 <= i < self.player_count):  # nor a player
                raise InputError(f"player index {i!r} out of range")
        if list(members) != sorted(set(members)):
            raise InputError("coalition members must be strictly increasing")
        return members


class ScoreVector(Record):
    """Per-size deviation counts; entry r-1 counts coalitions of size r."""

    kind: str
    counts: tuple
    player_count: int

    def __post_init__(self):
        check_kind(self.kind)
        counts = tuple(self.counts)
        object.__setattr__(self, "counts", counts)
        if len(counts) > self.player_count:
            raise InputError("more entries than coalition sizes")
        for r, cnt in enumerate(counts, start=1):
            if not 0 <= cnt <= comb(self.player_count, r):
                raise InputError(
                    f"count {cnt} for size {r} exceeds binomial({self.player_count},{r})"
                )

    @property
    def r_max(self) -> int:
        return len(self.counts)

    def count(self, r: int) -> int:
        """Number of deviating coalitions of size exactly r."""
        if not 1 <= r <= self.r_max:
            raise InputError(f"size {r} outside 1..{self.r_max}")
        return self.counts[r - 1]


class Classification(Record):
    """Solution-concept flags derived from a strict/weak score pair."""

    is_nash: bool
    se_level: int  # largest r with zero strict counts up to r (strong eq. depth)
    sse_level: int  # same for weak counts (super-strong depth)
    is_pareto_efficient: bool


def first_deviation(profiles: Iterable, members: Sequence, base: Sequence,
                    utility: Callable, kind: str):
    """The one definition of a deviation: the first of `profiles` at which
    no member's `utility(i, profile)` falls below its entry of `base` and
    every member gains (strict) or at least one does (weak); None when no
    candidate qualifies.  A candidate is dropped at its first failing member,
    so later members' utilities are never computed for it.  Members and
    their base utilities are paired once, before the scan.  `kind` is STRICT
    or WEAK; callers validate it before they start any work."""
    strict = kind == STRICT
    pairs = tuple(zip(members, base))
    for profile in profiles:
        improved = False
        for i, old in pairs:
            new = utility(i, profile)
            if new > old:
                improved = True
            elif strict or new < old:
                break
        else:
            if improved:
                return profile
    return None


def rebids(profile: Sequence, positions: Sequence, joints: Iterable):
    """`profile` as a tuple with each joint action of `joints` written into
    `positions`, one tuple per joint (the auction grid search and the
    reserve certification build their candidates with it)."""
    work = list(profile)
    for joint in joints:
        for pos, a in zip(positions, joint):
            work[pos] = a
        yield tuple(work)


def _generic_search(game: FiniteGame, members: Coalition, profile: Profile,
                    kind: str):
    """Plain product scan driven by the utility oracle: one product over
    every position, each member's whole action range and each outsider's
    fixed action, yields the complete candidate profiles in lexicographic
    order of the members' joint actions (last member fastest)."""
    base = [game.utility(i, profile) for i in members]
    axes = [(a,) for a in profile]
    for i in members:
        axes[i] = range(game.action_counts[i])
    found = first_deviation(itertools.product(*axes), members, base,
                            game.utility, kind)
    return None if found is None else tuple(found[i] for i in members)


def _checked(game: FiniteGame, profile: Sequence, coalition: Iterable,
             kind: str):
    """Validate a search request; returns (profile, members)."""
    check_kind(kind)
    return game.validate_profile(profile), game.validate_coalition(coalition)


def deviates(game: FiniteGame, profile: Profile, members: Coalition,
             kind: str, limit: int) -> bool:
    """`has_deviation` for callers that validate once and pass `limit` from
    `search_budget`: charge the joint action space, then decide by the hook
    or the generic scan."""
    check_budget(prod(game.action_counts[i] for i in members), limit)
    if game.deviation_test is not None:
        return game.deviation_test(members, profile, kind)
    return _generic_search(game, members, profile, kind) is not None


def find_deviation(game: FiniteGame, profile: Sequence, coalition: Iterable,
                   kind: str = STRICT, budget: Optional[int] = None):
    """Exhaustively search the coalition's joint actions for a deviation.

    Returns the lexicographically first improving joint action (a tuple
    aligned with the coalition's members, the last member's action varying
    fastest), or None when no deviation exists.  Raises BudgetExceededError
    when the joint action space is larger than the effective budget; that
    outcome is deliberately distinct from None.

    The witness always comes from the generic scan, one product over all
    positions with the outsiders' actions held fixed.  On a game with a
    `deviation_test` hook (srsg) a "no" from the hook returns None at once,
    and a "yes" costs the scan up to the witness: at most one utility call per
    member for each joint action up to it in product order, at worst the
    whole joint action space.
    """
    profile, members = _checked(game, profile, coalition, kind)
    check_budget(prod(game.action_counts[i] for i in members), budget)
    if (game.deviation_test is not None
            and not game.deviation_test(members, profile, kind)):
        return None
    return _generic_search(game, members, profile, kind)


def has_deviation(game: FiniteGame, profile: Sequence, coalition: Iterable,
                  kind: str = STRICT, budget: Optional[int] = None) -> bool:
    """Whether `find_deviation` would return a witness, without building one
    when the game has a `deviation_test` hook."""
    profile, members = _checked(game, profile, coalition, kind)
    return deviates(game, profile, members, kind, search_budget(budget))


def score_vector(game: FiniteGame, profile: Sequence, kind: str = STRICT,
                 r_max: Optional[int] = None,
                 budget: Optional[int] = None) -> ScoreVector:
    """Count deviating coalitions of every size 1..r_max.

    r_max defaults to the player count; capping it avoids the binomial blowup
    when only small coalitions are of interest.  The inputs and the budget
    are checked once, then `deviates` decides each coalition.  When a
    coalition's search exceeds the budget, the BudgetExceededError raised
    carries the vector of the sizes finished before it as `partial` (size
    `partial.r_max + 1` was cut).
    """
    check_kind(kind)
    profile = game.validate_profile(profile)
    n = game.player_count
    if r_max is None:
        r_max = n
    if not (type(r_max) is int and 1 <= r_max <= n):  # nor a bool
        raise InputError(f"r_max {r_max} outside 1..{n}")
    limit = search_budget(budget)
    counts = []
    try:
        for r in range(1, r_max + 1):
            hits = 0
            for members in itertools.combinations(range(n), r):
                if deviates(game, profile, members, kind, limit):
                    hits += 1
            counts.append(hits)
    except BudgetExceededError as exc:
        exc.partial = ScoreVector(kind, tuple(counts), n)
        raise
    return ScoreVector(kind, tuple(counts), n)


def compare_scores(a: ScoreVector, b: ScoreVector) -> str:
    """Lexicographic comparison: fewer deviating coalitions at the first
    differing size wins.  Returns "more_stable", "less_stable" or "equal"
    describing `a` relative to `b`."""
    if a.kind != b.kind:
        raise InputError("cannot compare score vectors of different kinds")
    if a.r_max != b.r_max:
        raise InputError("cannot compare score vectors of different lengths")
    for x, y in zip(a.counts, b.counts):
        if x < y:
            return MORE_STABLE
        if x > y:
            return LESS_STABLE
    return EQUAL


def classify(first: ScoreVector, second: ScoreVector) -> Classification:
    """Derive equilibrium flags from one strict and one weak score vector.

    Both vectors must cover every coalition size 1..n.  A profile is a Nash
    equilibrium iff no single player deviates under either notion; the strict
    vector's leading zeros give the strong-equilibrium depth; the weak
    vector's give the super-strong depth; Pareto efficiency is the absence of
    a weak deviation by the grand coalition.
    """
    by_kind = {v.kind: v for v in (first, second)}
    if set(by_kind) != {STRICT, WEAK}:
        raise InputError("expected one strict and one weak score vector")
    strict, weak = by_kind[STRICT], by_kind[WEAK]
    if strict.player_count != weak.player_count:
        raise InputError("score vectors describe different games")
    n = strict.player_count
    if strict.r_max != n or weak.r_max != n:
        raise InputError("classification needs counts for every size 1..n")

    def leading_zero_depth(counts):
        depth = 0
        for cnt in counts:
            if cnt:
                break
            depth += 1
        return depth

    return Classification(
        is_nash=strict.counts[0] == 0 and weak.counts[0] == 0,
        se_level=leading_zero_depth(strict.counts),
        sse_level=leading_zero_depth(weak.counts),
        is_pareto_efficient=weak.counts[n - 1] == 0,
    )


# ---------------------------------------------------------------------------
# Game exchange documents
#
# A self-describing JSON object with the player count, per-player action
# counts and either an explicit utility table (exact rationals as "p/q"
# strings) or a named generator reference resolved by the caller.  Named
# profiles ride along so CLI invocations can refer to them.
# ---------------------------------------------------------------------------

GAME_FORMAT = "coalstab-game"


def rational_to_str(value: Rational) -> str:
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def rational_from_str(text: str) -> Rational:
    """The one parser of rational text ("3", "-1/2", "0.25"): an int when
    whole, else a Fraction; any other text, "1/0" included, is an
    InputError that names it."""
    try:
        f = Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise InputError(f"not a rational: {text!r}") from None
    return f.numerator if f.denominator == 1 else f


def game_to_document(game: FiniteGame, profiles: Optional[dict] = None) -> dict:
    """Serialise a game as an explicit utility table (small games only)."""
    entries = []
    for profile in itertools.product(*(range(c) for c in game.action_counts)):
        payoffs = [rational_to_str(game.utility(i, profile))
                   for i in range(game.player_count)]
        entries.append({"profile": list(profile), "payoffs": payoffs})
    doc = {
        "format": GAME_FORMAT,
        "version": 1,
        "players": game.player_count,
        "action_counts": list(game.action_counts),
        "utilities": {"kind": "table", "entries": entries},
    }
    if profiles:
        doc["profiles"] = {name: list(p) for name, p in profiles.items()}
    return doc


def game_from_document(doc: dict, generator_resolvers: Optional[dict] = None):
    """Build (game, named_profiles) from an exchange document.

    Generator references are resolved through `generator_resolvers`, a mapping
    from generator name to a callable `params -> FiniteGame`.  A malformed
    document is an InputError: a missing key, a value of the wrong JSON type
    (`players` and `action_counts` hold ints, and a bool is not one), a
    payoff that is no rational, or a header that disagrees with the game.
    """
    if not isinstance(doc, dict) or doc.get("format") != GAME_FORMAT:
        raise InputError(f"not a {GAME_FORMAT} document")
    utilities = doc.get("utilities")
    if not isinstance(utilities, dict):
        raise InputError("document lacks a utilities section")
    players, counts = doc.get("players"), doc.get("action_counts")
    if not (type(players) is int and isinstance(counts, list)
            and all(type(c) is int for c in counts)):
        raise InputError("players must be an int and action_counts a list of ints")
    if utilities.get("kind") == "generator":
        name = utilities.get("name")
        resolvers = generator_resolvers or {}
        if not isinstance(name, str) or name not in resolvers:
            raise InputError(f"no resolver for generator {name!r}")
        game = resolvers[name](utilities.get("params", {}))
    elif utilities.get("kind") == "table":
        entries, table = utilities.get("entries"), {}
        if not isinstance(entries, list):
            raise InputError("a utility table needs a list of entries")
        game = FiniteGame(players, tuple(counts),
                          lambda i, profile: table[tuple(profile)][i])
        for entry in entries:
            if not (isinstance(entry, dict)
                    and isinstance(entry.get("profile"), list)
                    and isinstance(entry.get("payoffs"), list)):
                raise InputError(f"table entry {entry!r} needs a profile "
                                 "list and a payoffs list")
            payoffs = tuple(map(rational_from_str, entry["payoffs"]))
            if len(payoffs) != game.n:
                raise InputError(f"table entry {entry['profile']} has "
                                 f"{len(payoffs)} payoffs, expected {game.n}")
            table[game.validate_profile(entry["profile"])] = payoffs
        if len(table) != prod(game.action_counts):
            raise InputError(f"utility table has {len(table)} entries, "
                             f"expected {prod(game.action_counts)}")
    else:
        raise InputError("utilities.kind must be 'table' or 'generator'")
    header = (players, counts)
    if header != (game.n, list(game.action_counts)):
        raise InputError(f"header gives players and action_counts {header}, "
                         f"the game has {game.n} and {list(game.action_counts)}")
    named = doc.get("profiles", {})
    if not (isinstance(named, dict) and all(isinstance(p, list) for p in named.values())):
        raise InputError("profiles must map names to action lists")
    return game, {name: game.validate_profile(p) for name, p in named.items()}


def save_game(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_game(path, generator_resolvers: Optional[dict] = None):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return game_from_document(doc, generator_resolvers)

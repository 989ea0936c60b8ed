import random

import pytest
from hypothesis import settings

from coalstab import auction, srsg

# every property test is reproducible and untimed; each sets only max_examples
settings.register_profile("coalstab", derandomize=True, deadline=None)
settings.load_profile("coalstab")

# The 4-resource, 6-agent, 2-step instance with unit-slope costs and its three
# named equilibria: "repeat" keeps the same partition twice, "split" breaks up
# the doubled resources across steps, "rotate" pairs each doubled agent with a
# previously solo agent.
REPEAT = ((0, 0, 1, 1, 2, 3), (0, 0, 1, 1, 2, 3))
SPLIT = ((0, 0, 1, 1, 2, 3), (0, 1, 0, 1, 2, 3))
ROTATE = ((0, 0, 1, 1, 2, 3), (0, 1, 2, 3, 0, 1))


@pytest.fixture(scope="session")
def small_instance():
    return srsg.SrsgInstance(4, 6, 2, srsg.CostFn.linear(6))


@pytest.fixture(scope="session")
def small_game(small_instance):
    return srsg.induced_game(small_instance)


@pytest.fixture(scope="session")
def named_profiles():
    return {"repeat": REPEAT, "split": SPLIT, "rotate": ROTATE}


def random_auction(rng: random.Random, s: int, n: int) -> auction.AuctionInstance:
    values = sorted(rng.sample(range(1, 50 * n), n), reverse=True)
    ctrs = sorted(rng.sample(range(1, 40 * s), s), reverse=True)
    return auction.AuctionInstance(s, values, ctrs)


# The Fraction oracle of the pair move at a boundary equilibrium: the
# library decides every pair on scaled ints (`auction._deviation_thresholds`),
# and these two independent routes check it.

def value_for(inst: auction.AuctionInstance, eq: str, rank: int):
    """The value the boundary recursion attaches to rank `rank`."""
    return inst.value(rank - 1) if eq == auction.UE else inst.value(rank)


def pair_gain(inst: auction.AuctionInstance, eq: str, k: int, j: int):
    """Exact utility change of agent k when the pair (k, j) plays its one
    available joint move (j shades to the bid below, k takes slot j-1), in
    closed form.  The j = s+1 case treats the shaded bid as escapable to
    zero, which is exact when no bidder holds rank s+2."""
    loss = 0  # forfeited margin over slots k..j-2
    for t in range(k + 1, j):
        loss += (inst.ctr(t - 1) - inst.ctr(t)) * (inst.value(k) - value_for(inst, eq, t))
    tail = 0
    if j <= inst.s:
        acc = sum((inst.ctr(i - 1) - inst.ctr(i)) * value_for(inst, eq, i)
                  for i in range(j + 1, inst.s + 2))
        tail = acc / inst.ctr(j)
    return (inst.ctr(j - 1) - inst.ctr(j)) * (value_for(inst, eq, j) - tail) - loss


def simulate_pair_deviation(inst: auction.AuctionInstance, eq: str, k: int, j: int):
    """Agent k's utility after the pair move, read off the bid vector: k
    holds slot j-1 and pays the bid of rank j+1 (0 past the last bidder)."""
    bids = auction.equilibrium_bids(inst, eq)
    price = bids[j] if j < len(bids) else 0
    return (inst.value(k) - price) * inst.ctr(j - 1)

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

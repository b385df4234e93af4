"""Inputs of the ordtypes benchmark.

The corpus and the random-term generator are the benchmark's own
copies, so an edit to the test suite cannot move the benchmark.  Every
input is text: the program sees the generated terms only through its
parser.

A workload is an endless stream of passes drawn from the seed.  A pass
parses its texts, builds an ``Engine``, asks ``embeds`` on its pairs and
``classify_type`` on its terms, and replays the certificates it got.
The stream comes in cycles of ``CYCLE`` passes, and a run ends on a
cycle boundary.  The first cycle is the workload's fixed epoch: it asks
the same questions at every seed, and the answer counts are taken over
it, so they repeat up to calls whose latency is close to the cap.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

# The 23 normalized terms of the regression corpus, whose profiles the
# engine decides.
CORPUS = (
    "0", "1", "2", "3",
    "w", "w^(2)", "w^(3)", "w^(w)",
    "w~", "w^(2)~", "w^(3)~", "w^(w)~",
    "q", "1+q", "r",
    "z", "z*q", "w*q",
    "geom(w)", "geomrev(w)",
    "w + 1", "w*2", "w~ + w",
)

WORKLOADS = ("corpus", "shuffled", "random")

DEFAULT_SEEDS = {"corpus": 1, "shuffled": 23, "random": 7}

# ``shuffled`` and ``random`` draw a fixed family of passes from their
# default seed; a cycle visits the whole family, the first cycle in the
# family's own order and each later one in an order drawn from the run's
# seed, as ``corpus`` permutes its pairs.  A fixed family keeps runs at
# different seeds comparable: a rule order's typical call costs 20 to
# 150 us, and a few random terms in a hundred hold most of the capped
# calls, so a few dozen orders or a few thousand terms drawn afresh make
# the median call and the capped time hang on the seed.
#
# ``shuffled``: seeded shuffles of the default rule order, drawn as
# ``test_rule_order_permutation_never_flips`` draws its three, so those
# three come first.
SHUFFLED_FAMILY = 12
# ``random``: passes of seeded random terms; each term recurs once a
# cycle, but every call gets a fresh engine, so no engine memo is shared.
RANDOM_FAMILY = 250

# Passes per cycle of each workload's stream.
CYCLE = {"corpus": 1, "shuffled": SHUFFLED_FAMILY, "random": RANDOM_FAMILY}

# Passes in the fixed epoch of each workload: one cycle, the whole
# family, visited in the same order at every seed.
PREFIX = CYCLE

# Per-call wall-clock cap, in seconds.  Under the default rule order no
# corpus call comes near 0.2 s, and a shuffled order's embeds pairs
# either finish in under 0.1 s or run for 0.4 s to minutes.  On random
# terms the latencies have no wide gap; 10 ms keeps a capped call cheap,
# so a cycle of a thousand distinct terms takes about ten seconds.
CAPS = {"corpus": 0.2, "shuffled": 0.2, "random": 0.01}

# Terms per random pass; every ordered pair of them is asked.  Small
# passes give the family many distinct terms for the time it takes.
RANDOM_TERMS_PER_PASS = 4
RANDOM_DEPTH = 2


@dataclass(frozen=True)
class Pass:
    """One unit of work: parse ``texts``, then ask every index pair in
    ``pairs`` through ``embeds`` and every text through
    ``classify_type``."""

    texts: Tuple[str, ...]
    pairs: Tuple[Tuple[int, int], ...]
    rule_order: Optional[Tuple[str, ...]]
    engine_per_call: bool


def parse_all(texts):
    from ordtypes.terms import normalize, parse_term

    return [normalize(parse_term(t)) for t in texts]


def new_engine(rule_order=None):
    from ordtypes.engine import Engine

    return Engine(rule_order=rule_order) if rule_order else Engine()


def passes(name: str, seed: int, default_order: Tuple[str, ...]) -> Iterator[Pass]:
    """The seeded pass stream of a workload."""
    rng = random.Random(seed)
    all_pairs = tuple(itertools.product(range(len(CORPUS)), repeat=2))
    if name == "corpus":
        order = list(all_pairs)
        rng.shuffle(order)
        family = [Pass(CORPUS, tuple(order), None, False)]
    elif name == "shuffled":
        family = [Pass(CORPUS, all_pairs, rules, False)
                  for rules in rule_orders(default_order)]
    elif name == "random":
        family = list(random_passes())
    else:
        raise ValueError(f"unknown workload {name!r}")
    while True:
        yield from family
        family = rng.sample(family, len(family))


def rule_orders(default_order: Tuple[str, ...]):
    """The ``shuffled`` workload's family of rule orders."""
    rng = random.Random(DEFAULT_SEEDS["shuffled"])
    family = []
    for _ in range(SHUFFLED_FAMILY):
        rules = list(default_order)
        rng.shuffle(rules)
        family.append(tuple(rules))
    return family


def random_passes() -> Iterator[Pass]:
    """The ``random`` workload's family of passes."""
    rng = random.Random(DEFAULT_SEEDS["random"])
    n = RANDOM_TERMS_PER_PASS
    pairs = tuple(itertools.product(range(n), repeat=2))
    for _ in range(RANDOM_FAMILY):
        texts = tuple(rand_term(rng, RANDOM_DEPTH) for _ in range(n))
        yield Pass(texts, pairs, None, True)


# ---------------------------------------------------------------------------
# random terms, as text
#
# A CNF ordinal is a tuple of (exponent, coefficient) pairs with strictly
# decreasing exponents, each exponent itself such a tuple; zero is ().
# Python's tuple order is then the ordinal order.  The draws match the
# generator of the test suite call for call, so a seed gives the same
# terms there and here.

_ONE = (((), 1),)


def _rand_ordinal(rng: random.Random, depth: int = 3, max_coeff: int = 5):
    if depth == 0 or rng.random() < 0.5:
        n = rng.randint(0, max_coeff)
        return (((), n),) if n else ()
    pairs = {}
    for _ in range(rng.randint(1, 2)):
        pairs[_rand_ordinal(rng, depth - 1, max_coeff)] = rng.randint(
            1, max_coeff
        )
    return tuple(sorted(pairs.items(), key=lambda kv: kv[0], reverse=True))


def ordinal_text(a) -> str:
    if not a:
        return "0"
    parts = []
    for exp, coeff in a:
        if not exp:
            parts.append(str(coeff))
            continue
        power = "w" if exp == _ONE else f"w^({ordinal_text(exp)})"
        parts.append(power if coeff == 1 else f"{power}*{coeff}")
    return " + ".join(parts)


def _rand_scattered(rng: random.Random, depth: int) -> str:
    """An eta-free, lambda-free term of the given depth, as an atom."""
    opts = ["ord", "rev-ord", "zeta"]
    if depth > 0:
        opts += ["sum", "prod", "rev", "geom", "geomrev"]
    k = rng.choice(opts)
    if k == "ord":
        return f"({ordinal_text(_rand_ordinal(rng, 1))})"
    if k == "rev-ord":
        e = _rand_ordinal(rng, 1) or _ONE
        return f"(w^({ordinal_text(e)}))~"
    if k == "zeta":
        return "z"
    if k == "sum":
        n = rng.randint(2, 3)
        return "(" + " + ".join(
            _rand_scattered(rng, depth - 1) for _ in range(n)
        ) + ")"
    if k == "prod":
        return f"({_rand_scattered(rng, depth - 1)}*{_rand_scattered(rng, depth - 1)})"
    if k == "rev":
        return f"({_rand_scattered(rng, depth - 1)}~)"
    name = "geom" if k == "geom" else "geomrev"
    return f"{name}({_rand_scattered(rng, depth - 1)}, {rng.randint(0, 1)})"


def rand_term(rng: random.Random, depth: int) -> str:
    """A random term, dense types included."""
    if depth > 0 and rng.random() < 0.2:
        return rng.choice(["q", "r"])
    return _rand_scattered(rng, depth)

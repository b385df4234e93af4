"""Shared generators and helpers for the test suite."""

import json
import random

from ordtypes import terms as tm
from ordtypes.ordinals import OMEGA, Ordinal
from ordtypes.terms import parse_normalized


def T(text: str) -> tm.Term:
    return parse_normalized(text)


def rand_ordinal(rng: random.Random, depth: int = 3,
                 max_coeff: int = 5) -> Ordinal:
    """A random CNF ordinal with exponent nesting depth <= depth and
    coefficients <= max_coeff."""
    if depth == 0 or rng.random() < 0.5:
        return Ordinal.from_int(rng.randint(0, max_coeff))
    pairs = {}
    for _ in range(rng.randint(1, 2)):
        pairs[rand_ordinal(rng, depth - 1, max_coeff)] = rng.randint(
            1, max_coeff
        )
    items = sorted(pairs.items(), key=lambda kv: kv[0], reverse=True)
    return Ordinal(tuple(items))


def rand_scattered_term(rng: random.Random, depth: int) -> tm.Term:
    """A random eta-free, lambda-free term of the given depth."""
    opts = ["ord", "rev-ord", "zeta"]
    if depth > 0:
        opts += ["sum", "prod", "rev", "geom", "geomrev"]
    k = rng.choice(opts)
    if k == "ord":
        return tm.OrdLeaf(rand_ordinal(rng, 1))
    if k == "rev-ord":
        e = rand_ordinal(rng, 1)
        if e.is_zero():
            e = Ordinal.from_int(1)
        return tm.Rev(tm.OrdLeaf(OMEGA**e))
    if k == "zeta":
        return tm.ZETA
    if k == "sum":
        n = rng.randint(2, 3)
        return tm.Sum(
            tuple(rand_scattered_term(rng, depth - 1) for _ in range(n))
        )
    if k == "prod":
        return tm.Prod(
            rand_scattered_term(rng, depth - 1),
            rand_scattered_term(rng, depth - 1),
        )
    if k == "rev":
        return tm.Rev(rand_scattered_term(rng, depth - 1))
    if k == "geom":
        return tm.GeomOmega(rand_scattered_term(rng, depth - 1),
                            rng.randint(0, 1))
    return tm.GeomOmegaStar(rand_scattered_term(rng, depth - 1),
                            rng.randint(0, 1))


def rand_term(rng: random.Random, depth: int) -> tm.Term:
    """A random term, dense types included."""
    if depth > 0 and rng.random() < 0.2:
        return rng.choice([tm.ETA, tm.LAMBDA])
    return rand_scattered_term(rng, depth)


# a small corpus of normalized terms whose profiles the engine decides;
# used by the regression and hygiene suites
REGRESSION_CORPUS = (
    "0", "1", "2", "3",
    "w", "w^(2)", "w^(3)", "w^(w)",
    "w~", "w^(2)~", "w^(3)~", "w^(w)~",
    "q", "1+q", "r",
    "z", "z*q", "w*q",
    "geom(w)", "geomrev(w)",
    "w + 1", "w*2", "w~ + w",
)


def distinct_nodes(certificates):
    """The distinct nodes of the certificates, nested ones included."""
    seen, nodes = set(), {}
    todo = list(certificates)
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.setdefault(json.dumps(node, sort_keys=True), node)
            todo.extend(node["premises"])
    return list(nodes.values())

"""The ordinal bounds of ``Facts`` -- the least ordinal, and the least
reversed ordinal, that does not embed in a scattered term -- and what
R-ORD, R-CO-ORD and R-STRUCT decide by them."""

import json
import random
from pathlib import Path

from ordtypes.analysis import _product_bound, facts
from ordtypes.engine import (
    DEFAULT_RULE_ORDER,
    RULES,
    Engine,
    replay_certificate,
)
from ordtypes.ordinals import Ordinal
from ordtypes.terms import normalize, parse_normalized, pure_ordinal, reverse_term

from helpers import REGRESSION_CORPUS, T, rand_term

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"

BOUNDS = ("ordinal_bound", "rev_ordinal_bound")

# the rules that read the bounds
BOUND_RULES = ("R-ORD", "R-CO-ORD", "R-STRUCT")


def _o(text):
    return pure_ordinal(T(text))


# text -> (ordinal bound, reversed-ordinal bound)
VALUES = {
    "0": ("1", "1"),
    "3": ("4", "4"),
    "w": ("w + 1", "w"),
    "w + 1": ("w + 2", "w"),
    "w~": ("w", "w + 1"),
    "w^(2)~": ("w", "w^(2) + 1"),
    "z": ("w + 1", "w + 1"),
    "z*3": ("w*3 + 1", "w*3 + 1"),
    "z*z": ("w^(2) + 1", "w^(2) + 1"),
    "w*z": ("w^(2) + 1", "w + 1"),
    "w~*z": ("w + 1", "w^(2) + 1"),
    "z*w": ("w^(2) + 1", "w^(2)"),
    "z*w~": ("w^(2)", "w^(2) + 1"),
    "geom(z)": ("w^(w) + 1", "w^(w)"),
    "geomrev(z)": ("w^(w)", "w^(w) + 1"),
    "geom(w~)": ("w + 1", "w^(w)"),
    "geomrev(w^(w)~ + z)": ("w^(w)", "w^(w^(2)) + 1"),
    "revsum(w^(2))": ("w^(2)", "w + 1"),
    "revsum(w^(2)*2)": ("w^(3)", "w + 1"),
    "revsum(w^(2)*2)~": ("w + 1", "w^(3)"),
}


def _bounds(t):
    f = facts(t)
    return tuple(getattr(f, name) for name in BOUNDS)


def _reference(workload):
    return json.loads((REFERENCE / f"{workload}.json").read_text())["passes"]


def _random_family():
    """The terms of the benchmark's random family."""
    texts = {x for p in _reference("random") for x in p["profiles"]}
    return [parse_normalized(x) for x in sorted(texts)]


def test_bound_values():
    for text, want in VALUES.items():
        assert _bounds(T(text)) == tuple(map(_o, want)), text
    for text in ("q", "r + w", "z*q"):
        assert _bounds(T(text)) == (None, None), text


def test_product_bound_of_ordinal_factors():
    # for ordinals a and b the product is the ordinal a*b, bound a*b + 1
    ords = [Ordinal.from_int(n) for n in (1, 2, 5)] + [
        _o(x) for x in ("w", "w + 3", "w*2", "w^(2) + w", "w^(w)")]
    for a in ords:
        for b in ords:
            assert _product_bound(a + _o("1"), b + _o("1")) == a * b + _o("1")


def test_reversal_conjugation():
    # the reversed bound of t is the bound of t reversed
    rng = random.Random(41)
    ts = [T(x) for x in REGRESSION_CORPUS] + _random_family()
    ts += [normalize(rand_term(rng, 3)) for _ in range(300)]
    checked = 0
    for t in ts:
        up, down = _bounds(t)
        assert _bounds(reverse_term(t)) == (down, up), t
        checked += up is not None
    assert checked > 700


def test_no_yes_pair_has_a_bound_above_its_target(eng):
    # corpus x corpus, and the committed reference answers of the
    # benchmark, decided without the bounds
    pairs = [(T(s), T(t), eng.embeds(T(s), T(t)).answer)
             for s in REGRESSION_CORPUS for t in REGRESSION_CORPUS]
    for workload in ("corpus", "shuffled", "random"):
        for p in _reference(workload):
            for key, answer in p["embeds"].items():
                s, t = (parse_normalized(x) for x in key.split("\t"))
                pairs.append((s, t, answer))
    yes = 0
    for s, t, answer in pairs:
        if answer != "YES" or facts(t).ordinal_bound is None:
            continue
        yes += 1
        assert all(a <= b for a, b in zip(_bounds(s), _bounds(t))), (s, t)
    assert yes > 1000


def test_bound_rules_agree_with_an_engine_without_them(eng):
    # corpus x corpus and a seeded sample of random pairs: each decision
    # of the three rules, against an engine that cannot make it
    without = tuple(r for r in DEFAULT_RULE_ORDER if r not in BOUND_RULES)
    rng = random.Random(17)
    pool = [normalize(rand_term(rng, 2)) for _ in range(60)]
    corpus = [T(x) for x in REGRESSION_CORPUS]
    batches = [[(s, t) for s in corpus for t in corpus],
               [(rng.choice(pool), rng.choice(pool)) for _ in range(400)]]
    agree = by_bound = 0
    for pairs in batches:
        other = Engine(depth=2, rule_order=without)
        for s, t in pairs:
            for rule in BOUND_RULES:
                decide, _ = RULES[rule][1]
                d = decide(s, t)
                if d is None:
                    continue
                v = other.embeds(s, t)
                if v.decided:
                    assert v.answer == d[0], (rule, s, t)
                    agree += 1
                    by_bound += "bound" in d[1] or d[1].get("fact") in BOUNDS
    assert agree > 400 and by_bound > 20, (agree, by_bound)


def test_an_ordinal_below_the_bound_embeds_at_once():
    # the goal that expanded 3,005 goals and ended UNKNOWN without it
    eng = Engine()
    v = eng.embeds(T("w^(5) + w^(4)*3"), T("geomrev(z)"))
    assert v.is_yes and v.certificate["rule"] == "R-ORD"
    assert v.certificate["instantiation"] == {"bound": "w^(w)"}
    assert eng.search_stats()["goals"] == 1
    assert replay_certificate(v.certificate)


# pair -> (rule, instantiation) of its certificate
BOUND_NODES = {
    ("w", "z"): ("R-ORD", {"bound": "w + 1"}),
    ("w~", "z"): ("R-CO-ORD", {"bound": "w + 1"}),
    ("w^(2)", "geom(w~)*z"): ("R-ORD", {"bound": "w^(2) + 1"}),
    ("w*3", "z + z"): ("R-STRUCT", {"fact": "ordinal_bound",
                                    "s": "w*3 + 1", "t": "w*2 + 1"}),
    ("w~*3", "z + z"): ("R-STRUCT", {"fact": "rev_ordinal_bound",
                                     "s": "w*3 + 1", "t": "w*2 + 1"}),
}


def test_replay_rejects_mutated_bound_nodes():
    for (s, t), (rule, inst) in BOUND_NODES.items():
        cert = Engine().embeds(T(s), T(t)).certificate
        assert (cert["rule"], cert["instantiation"]) == (rule, inst), (s, t)
        assert replay_certificate(cert)
        key = "bound" if "bound" in inst else "t"
        for value in ("w", "w^(3)", inst[key] + " + 1"):
            changed = dict(inst, **{key: value})
            assert not replay_certificate(dict(cert, instantiation=changed))
        flipped = "NO" if cert["answer"] == "YES" else "YES"
        assert not replay_certificate(dict(cert, answer=flipped))
        assert not replay_certificate(dict(cert, s=cert["t"], t=cert["s"]))

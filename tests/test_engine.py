import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ordtypes
from ordtypes.engine import (
    CLASSIFIERS,
    DEFAULT_RULE_ORDER,
    Engine,
    IMPLICATIONS,
    PROFILE_FIELDS,
    RULES,
    _ordinal_flags,
    _ProfileBuilder,
    _sumify,
    replay_certificate,
)
from ordtypes.terms import (
    OrdLeaf,
    Prod,
    Sum,
    co_ordinal,
    fin,
    normalize,
    parse_normalized,
    print_term,
    pure_ordinal,
    reverse_term,
)

from helpers import REGRESSION_CORPUS, T, distinct_nodes, rand_ordinal

YES, NO, UNKNOWN = "YES", "NO", "UNKNOWN"


# frozen verdicts (answer, rule) for characteristic pairs
FROZEN_EMBEDS = {
    ("w", "z"): (YES, "R-ORD"),
    ("z", "w"): (NO, "R-STRUCT"),
    ("w~", "z"): (YES, "R-CO-ORD"),
    ("q", "r"): (YES, "R-ETA-UNIV"),
    ("r", "q"): (NO, "R-CARD"),
    ("w^(2)", "w"): (NO, "R-ORD"),
    ("w", "w^(2)"): (YES, "R-ORD"),
    ("geom(w)", "q"): (YES, "R-ETA-UNIV"),
    ("z", "q"): (YES, "R-ETA-UNIV"),
    ("w*q", "q"): (YES, "R-ETA-UNIV"),
    ("q", "w*q"): (YES, "R-ABSORB"),
    ("geomrev(w)", "geomrev(w, 1)"): (YES, "R-ABSORB"),
    ("geomrev(w, 1)", "geomrev(w)"): (YES, "R-ABSORB"),
    ("w~", "w"): (NO, "R-STRUCT"),
    ("w", "w~"): (NO, "R-STRUCT"),
    ("1+q", "q"): (YES, "R-ETA-UNIV"),
    ("w*2", "w"): (NO, "R-ORD"),
    ("r*r", "r"): (NO, "R-LAMBDA-SEP"),
    ("q*q", "q"): (YES, "R-ETA-UNIV"),
    ("z*z", "z"): (NO, "R-STRUCT"),
    ("w^(3)", "w^(w)"): (YES, "R-ORD"),
}


def test_frozen_embeds(eng):
    for (s, t), (answer, rule) in FROZEN_EMBEDS.items():
        v = eng.embeds(T(s), T(t))
        assert v.answer == answer, (s, t)
        assert v.certificate["rule"] == rule, (s, t)


def test_embeds_reflexive(eng):
    for s in REGRESSION_CORPUS:
        assert eng.embeds(T(s), T(s)).is_yes, s


def test_embeds_no_decided_contradiction_with_transitivity(eng):
    # s <= t <= u and s <= u decided must not clash
    terms = [T(s) for s in REGRESSION_CORPUS]
    for a, b, c in itertools.product(terms[:14], repeat=3):
        ab, bc, ac = eng.embeds(a, b), eng.embeds(b, c), eng.embeds(a, c)
        if ab.is_yes and bc.is_yes:
            assert not ac.is_no, (
                print_term(a), print_term(b), print_term(c)
            )


def test_equimorphic_frozen(eng):
    assert eng.equimorphic(T("q"), T("1+q")).is_yes
    assert eng.equimorphic(T("q"), T("z*q")).is_yes
    assert eng.equimorphic(T("geomrev(w)"), T("geomrev(w, 1)")).is_yes
    assert eng.equimorphic(T("w"), T("w~")).is_no
    assert eng.equimorphic(T("w"), T("w^(2)")).is_no


# ---------------------------------------------------------------------------
# classification


def test_classify_frozen(eng):
    expect = {
        "w": dict(indecomposable=YES, untranscendable=YES,
                  s_untranscendable=YES, homogeneous=NO,
                  strictly_indec_left=NO, strictly_indec_right=YES),
        "q": dict(indecomposable=YES, untranscendable=YES,
                  s_untranscendable=YES, homogeneous=YES,
                  strictly_indec_left=NO, strictly_indec_right=NO),
        "r": dict(strongly_indecomposable=NO, untranscendable=YES,
                  s_untranscendable=YES, product_closed=NO,
                  homogeneous=YES),
        "2": dict(indecomposable=NO, untranscendable=YES,
                  s_untranscendable=YES, product_closed=YES),
        "w^(w)": dict(untranscendable=YES, s_untranscendable=NO,
                      strictly_indec_right=YES),
        "geomrev(w)": dict(indecomposable=YES, untranscendable=YES,
                           s_untranscendable=NO, product_closed=NO,
                           strictly_indec_left=YES,
                           strictly_indec_right=NO),
        "w~": dict(indecomposable=YES, strictly_indec_left=YES,
                   strictly_indec_right=NO),
    }
    for text, fields in expect.items():
        prof = eng.classify_type(T(text))
        for name, answer in fields.items():
            assert getattr(prof, name).answer == answer, (text, name)


def _closure_gaps(t, answers):
    """The rows of the implication table the profile answers of t are
    not closed under, forward or by contrapositive; a violated row is
    a gap too."""
    gaps = []
    for name, premise, conclusion, side, _ in IMPLICATIONS:
        if side(t) and (answers[premise] == YES and answers[conclusion] != YES
                        or answers[conclusion] == NO and answers[premise] != NO):
            gaps.append((name, premise, conclusion))
    return gaps


def test_classify_profile_internal_consistency(eng):
    for text in REGRESSION_CORPUS:
        p = eng.classify_type(T(text))
        assert _closure_gaps(T(text), p.answers()) == [], text
        if p.sum_closed.is_yes:
            assert not p.indecomposable.is_no, text


def test_general_catalogue_agrees_with_ordinal_closed_form(eng):
    # ordinals and reversed ordinals forced through the general catalogue
    # and the implication table must never contradict the closed form
    rng = random.Random(5)
    terms = set()
    for _ in range(360):
        t = OrdLeaf(rand_ordinal(rng, depth=3, max_coeff=5))
        terms |= {normalize(t), normalize(reverse_term(t))}
    assert len(terms) > 300
    decided, disagreements = 0, []
    for t in sorted(terms, key=print_term):
        b = _ProfileBuilder(t)
        eng._classify_general(b)
        a = pure_ordinal(t)
        flags = _ordinal_flags(a if a is not None else co_ordinal(t), a is None)
        for field, v in b.fields.items():
            if v.decided:
                decided += 1
                if flags.get(field) != v.answer:
                    disagreements.append((print_term(t), field, v.answer))
    assert disagreements == []
    assert decided > 2000


def test_classification_is_equimorphism_invariant(eng):
    equis = [("q", "1+q"), ("q", "z*q"), ("q", "w*q"),
             ("geomrev(w)", "geomrev(w, 1)")]
    for a, b in equis:
        pa, pb = eng.classify_type(T(a)), eng.classify_type(T(b))
        for name in PROFILE_FIELDS:
            va, vb = getattr(pa, name), getattr(pb, name)
            if va.decided and vb.decided:
                assert va.answer == vb.answer, (a, b, name)


# ---------------------------------------------------------------------------
# trichotomy and square


def test_trichotomy_no_violations(eng):
    for text in REGRESSION_CORPUS:
        r = eng.trichotomy_check(T(text))
        assert not r["violation"], text


def test_trichotomy_frozen(eng):
    assert eng.trichotomy_check(T("w"))["reported"] == ["strictly_right"]
    assert eng.trichotomy_check(T("w~"))["reported"] == ["strictly_left"]
    assert eng.trichotomy_check(T("q"))["reported"] == ["double"]
    one = eng.trichotomy_check(T("1"))
    assert one["exception_one"] and len(one["reported"]) == 2


def test_square_report_frozen(eng):
    rep = eng.square_report(T("q"))
    assert rep["verdict"].answer == YES
    assert rep["verdict"].certificate["rule"] == "GARRETT"
    assert rep["failed"] == [] and rep["undecided"] == []

    rep = eng.square_report(T("r"))
    assert rep["verdict"].answer == NO
    assert rep["failed"] == ["two_copies_left"]
    assert rep["direct"].certificate["rule"] == "R-LAMBDA-SEP"

    rep = eng.square_report(T("w"))
    assert rep["verdict"].answer == NO
    assert rep["failed"] == ["two_copies_right"]

    rep = eng.square_report(T("w*r"))
    assert rep["failed"] == ["s_untranscendable"]
    assert rep["verdict"].answer in (NO, UNKNOWN)


# ---------------------------------------------------------------------------
# certificate replay


def _decided_verdicts(eng):
    out = []
    for s in REGRESSION_CORPUS:
        for t in REGRESSION_CORPUS:
            v = eng.embeds(T(s), T(t))
            if v.decided:
                out.append(v)
    for s in REGRESSION_CORPUS:
        p = eng.classify_type(T(s))
        for name in PROFILE_FIELDS:
            v = getattr(p, name)
            if v.decided:
                out.append(v)
    return out


def test_all_certificates_replay(eng):
    vs = _decided_verdicts(eng)
    assert len(vs) > 300
    for v in vs:
        assert v.certificate is not None
        assert replay_certificate(v.certificate), json.dumps(
            v.certificate, default=str
        )[:400]


def test_certificates_are_rendered_when_read():
    # the search prints no term: a certificate keeps its terms as terms
    # until it is first read, and they are printed then, once
    s, t = T("w^(731)*z + 17"), T("w^(731)*z*z")
    piece = T("w^(731)*z*3")
    v = Engine().embeds(s, t)
    assert v.is_yes
    assert s._text is None and t._text is None and piece._text is None
    cert = v.certificate
    assert (cert["s"], cert["t"]) == (s._text, t._text)
    assert cert["instantiation"] == {"piece": piece._text}
    assert v.certificate is cert
    assert replay_certificate(cert)


def _corruptions(node, eng):
    flip = dict(node)
    flip["answer"] = NO if node["answer"] == YES else YES
    yield flip
    # the converse claim, unless the same step proves it: R-GEOM-REINDEX
    # gives geomrev(w, 7) <= geomrev(w) and its converse from w <= w
    reindex = node["rule"] == "R-GEOM-REINDEX" and (
        node["premises"][0]["s"] == node["premises"][0]["t"])
    if node["s"] != node["t"] and not reindex:
        yield dict(node, s=node["t"], t=node["s"])
    if node["premises"]:
        deep = json.loads(json.dumps(node))
        prem = deep["premises"][0]
        prem["answer"] = NO if prem["answer"] == YES else YES
        yield deep
    for i in range(len(node["premises"])):
        yield dict(node, premises=node["premises"][:i] + node["premises"][i + 1:])
    if node["axioms"]:
        # the tags the node states or inherits from its premises
        yield dict(node, axioms=[])
    inst = node["instantiation"]
    yield dict(node, instantiation=dict(inst, forged=True))
    if node["rule"] in RULES:
        for key, value in inst.items():
            if value != "1":
                yield dict(node, instantiation=dict(inst, **{key: "1"}))
    if "claim" in node:
        # a classification about another term
        other = next(x for x in REGRESSION_CORPUS if T(x) != T(node["t"]))
        yield dict(node, s=other)
        # ... or of another field, unless the engine decides that field
        # the same way, so that the forged claim holds
        answers = eng.classify_type(T(node["t"])).answers()
        for field in PROFILE_FIELDS:
            if answers[field] != node["answer"]:
                yield dict(node, claim=field)


@pytest.fixture(scope="module")
def seed23_verdicts():
    """[(rule order, {(s, t): verdict})] for the three rule orders drawn
    at seed 23: a fresh engine per order, asked every corpus pair in
    corpus order."""
    rng = random.Random(23)
    out = []
    for _ in range(3):
        order = list(DEFAULT_RULE_ORDER)
        rng.shuffle(order)
        other = Engine(rule_order=order)
        out.append((order, {(s, t): other.embeds(T(s), T(t))
                            for s in REGRESSION_CORPUS
                            for t in REGRESSION_CORPUS}))
    return out


# one pair for each rule that the corpus certificates under the default
# and seed-23 orders do not reach, asked of a fresh engine whose order
# puts that rule first (under the default order R-STRUCT refutes every
# goal that R-BLOCK-UNBOUNDED refutes, and comes first), and one for
# R-SEP-SUM's "strong" variant, which they do not reach either
MISSING_RULE_PAIRS = {
    "R-DENSE-ABS": ("r + r", "r"),
    "R-PROD-SUMFOLD": ("w~ + w~ + w~ + w~", "z*z"),
    "R-SEP-PROD": ("z*z", "z*w"),
    "R-REVSUM-OMEGA": ("w^(w)", "revsum(w^(w))*w"),
    "R-GEOM-PROD": ("geomrev(w)", "w^(w)*w~"),
    "R-LAMBDA-SEP": ("r*r", "r"),
    "R-BLOCK-UNBOUNDED": ("w~ + w~", "geomrev(w)"),
    "R-SEP-SUM": ("r", "q"),
}


@pytest.fixture(scope="module")
def rule_nodes(eng, seed23_verdicts):
    """The distinct R-rule nodes, nested ones included, of the corpus
    embeds certificates under the default order and the seed-23 orders,
    and of ``MISSING_RULE_PAIRS``."""
    verdicts = [eng.embeds(T(s), T(t)) for s in REGRESSION_CORPUS
                for t in REGRESSION_CORPUS]
    for _, asked in seed23_verdicts:
        verdicts += asked.values()
    for rule, (s, t) in MISSING_RULE_PAIRS.items():
        order = (rule,) + tuple(r for r in DEFAULT_RULE_ORDER if r != rule)
        v = Engine(rule_order=order).embeds(T(s), T(t))
        assert v.certificate["rule"] == rule, (s, t)
        verdicts.append(v)
    nodes = distinct_nodes(v.certificate for v in verdicts if v.decided)
    return [n for n in nodes if n["rule"] in RULES]


def test_every_rule_node_replays(rule_nodes):
    assert {n["rule"] for n in rule_nodes} == set(RULES)
    assert {n["instantiation"]["variant"] for n in rule_nodes
            if n["rule"] == "R-SEP-SUM"} == {"plain", "strong", "join"}
    for node in rule_nodes:
        assert replay_certificate(node), json.dumps(node)[:400]


def test_every_classification_rule_node_replays(eng):
    # the corpus profiles reach every step rule and every row name of
    # the implication table, and both answers of the trichotomy
    verdicts = [getattr(eng.classify_type(T(x)), f)
                for x in REGRESSION_CORPUS for f in PROFILE_FIELDS]
    nodes = [n for n in distinct_nodes(v.certificate for v in verdicts
                                       if v.decided) if "claim" in n]
    rules = set(CLASSIFIERS) | {row[0] for row in IMPLICATIONS}
    assert len(rules) == 16 + 7
    assert {n["rule"] for n in nodes} == rules
    assert {n["answer"] for n in nodes if n["rule"] == "C-TRICH-EXCL"} == {YES, NO}
    for node in nodes:
        assert replay_certificate(node), json.dumps(node)[:400]


def test_replay_ends_on_deep_and_cyclic_certificates():
    # 2,000 R-REV nodes, alternating w~ <= w^(2)~ and w <= w^(2), on an
    # R-ORD leaf: far deeper than the interpreter's recursion limit
    leaf = {"answer": YES, "rule": "R-ORD", "s": "w", "t": "w^(2)",
            "instantiation": {"cmp": "LE"}, "premises": [], "axioms": []}
    node = leaf
    for k in range(2000):
        s, t = ("w~", "w^(2)~") if k % 2 == 0 else ("w", "w^(2)")
        node = {"answer": YES, "rule": "R-REV", "s": s, "t": t,
                "instantiation": {}, "premises": [node], "axioms": []}
    assert replay_certificate(node)
    leaf["answer"] = NO
    assert not replay_certificate(node)
    # two R-REV nodes, each the other's premise, prove nothing
    a = {"answer": YES, "rule": "R-REV", "s": "w~", "t": "w^(2)~",
         "instantiation": {}, "premises": [], "axioms": []}
    b = dict(a, s="w", t="w^(2)", premises=[a])
    a["premises"].append(b)
    assert not replay_certificate(a)


def test_corrupted_certificates_rejected(eng, rule_nodes):
    # the corpus certificates, and every R-rule node of the node set
    # (the corpus meets some rules, such as R-GEOM-PROD, only nested)
    checked = 0
    for node in [v.certificate for v in _decided_verdicts(eng)] + rule_nodes:
        for bad in _corruptions(node, eng):
            if replay_certificate(bad):
                raise AssertionError(
                    "accepted corrupted certificate: "
                    + json.dumps(bad, default=str)[:400]
                )
            checked += 1
    assert checked > 5000


def _classification(x, answer, rule, claim, premises):
    return {"answer": answer, "rule": rule, "claim": claim, "s": x, "t": x,
            "instantiation": {}, "premises": premises, "axioms": []}


def test_premises_about_other_terms_rejected(eng):
    # for each row of the implication table, either way, forged nodes
    # about a term x whose profile decides the claim the other way; the
    # premise is a sound node for the field the row starts from about
    # another term, or a sound node about x: for another field (a claim
    # swap), or for that field where the row's side condition fails
    profiles = {x: eng.classify_type(T(x)) for x in REGRESSION_CORPUS}
    forged = []
    for name, premise, conclusion, side, _ in IMPLICATIONS:
        for answer, start, end in ((YES, premise, conclusion),
                                   (NO, conclusion, premise)):
            for x, px in profiles.items():
                if getattr(px, end).answer in (answer, UNKNOWN):
                    continue
                other = [getattr(p, start) for y, p in profiles.items()
                         if y != x and getattr(p, start).answer == answer]
                own = [getattr(px, f) for f in PROFILE_FIELDS
                       if getattr(px, f).answer == answer]
                for v in other[:1] + own:
                    forged.append(_classification(x, answer, name, end,
                                                  [v.certificate]))
    assert len(forged) > 100

    def cert(s, t):
        return eng.embeds(T(s), T(t)).certificate

    z, q, w_plus_1 = profiles["z"], profiles["q"], profiles["w + 1"]
    assert z.strictly_indec_left.is_no and w_plus_1.indecomposable.is_no
    forged += [
        # a trichotomy step about z from facts about other terms
        _classification("z", YES, "C-TRICH-EXCL", "strictly_indec_left",
                        [cert("3", "2"), q.strictly_indec_right.certificate,
                         q.indecomposable.certificate]),
        # ... and one about the decomposable w + 1, for which the
        # trichotomy does not hold
        _classification("w + 1", YES, "C-TRICH-EXCL", "strictly_indec_left",
                        [cert("w + 1 + w + 1", "w + 1"),
                         w_plus_1.strictly_indec_right.certificate]),
    ]
    # q is product-closed (C-SQUARE): r does not embed in q, but r is not
    # below q, so r*1 <= q failing refutes nothing
    assert q.product_closed.is_yes
    forged.append(dict(_classification("q", NO, "C-PC-NO", "product_closed",
                                       [cert("r", "q")]),
                       instantiation={"psi": "r", "tau": "1"}))
    # a refutation of product-closure needs psi and tau strictly below t:
    # the genuine node for geomrev(w) with one of its four gates dropped
    pc = profiles["geomrev(w)"].product_closed.certificate
    assert pc["rule"] == "C-PC-NO" and len(pc["premises"]) == 5
    forged += [dict(pc, premises=pc["premises"][:i] + pc["premises"][i + 1:])
               for i in range(4)]
    # GARRETT's first premise must certify s-untranscendability, not
    # another field of the same term
    wq = profiles["w*q"]
    t = T("w*q")
    forged.append({
        "answer": YES, "rule": "GARRETT", "s": print_term(normalize(Prod(t, t))),
        "t": "w*q", "instantiation": {}, "axioms": [],
        "premises": [wq.indecomposable.certificate,
                     eng.embeds(_sumify([t, t]), t).certificate,
                     eng.embeds(normalize(Prod(fin(2), t)), t).certificate],
    })
    for bad in forged:
        assert all(replay_certificate(q) for q in bad["premises"])
        assert not replay_certificate(bad), json.dumps(bad)[:400]


def test_embedding_premises_must_be_embeddings(eng):
    # a classification node about x, with s == t == x, and an EQ node
    # refuting an equimorphism both print like an embedding; neither
    # may stand in for one
    w_homog = eng.classify_type(T("w")).homogeneous
    w_rev_homog = eng.classify_type(T("w~")).homogeneous
    eq = eng.equimorphic(T("w"), T("w^(2)"))
    assert w_homog.is_no and w_rev_homog.is_no and eq.is_no
    assert eng.embeds(T("z"), T("z")).is_yes
    assert eng.embeds(T("w~"), T("w^(2)~")).is_yes
    forged = [
        {"answer": NO, "rule": "R-SEP-SUM", "s": "z", "t": "z",
         "instantiation": {"variant": "plain", "s_cut": 0, "t_cut": 0},
         "premises": [w_rev_homog.certificate, w_homog.certificate],
         "axioms": []},
        {"answer": NO, "rule": "R-REV", "s": "w~", "t": "w^(2)~",
         "instantiation": {}, "premises": [eq.certificate], "axioms": []},
    ]
    for bad in forged:
        assert all(replay_certificate(q) for q in bad["premises"])
        assert not replay_certificate(bad), bad["rule"]


def test_replay_rejects_garbage():
    assert not replay_certificate({})
    assert not replay_certificate({"rule": "NO-SUCH-RULE", "answer": YES})
    assert not replay_certificate(None)


# ---------------------------------------------------------------------------
# hygiene: reversal, equimorphism invariance, rule order


def test_reversal_conjugation(eng):
    # s embeds in t exactly when their reverses embed
    for s in REGRESSION_CORPUS:
        for t in REGRESSION_CORPUS:
            v = eng.embeds(T(s), T(t))
            w = eng.embeds(reverse_term(T(s)), reverse_term(T(t)))
            if v.decided and w.decided:
                assert v.answer == w.answer, (s, t)


def test_equimorphism_invariance_of_embeds(eng):
    equis = [("q", "1+q"), ("q", "z*q"), ("geomrev(w)", "geomrev(w, 1)")]
    for a, b in equis:
        assert eng.equimorphic(T(a), T(b)).is_yes
        for probe in REGRESSION_CORPUS:
            p = T(probe)
            va, vb = eng.embeds(p, T(a)), eng.embeds(p, T(b))
            if va.decided and vb.decided:
                assert va.answer == vb.answer, (probe, a, b)
            ua, ub = eng.embeds(T(a), p), eng.embeds(T(b), p)
            if ua.decided and ub.decided:
                assert ua.answer == ub.answer, (a, b, probe)


def test_rule_order_permutation_never_flips(eng, seed23_verdicts):
    base = {}
    for s in REGRESSION_CORPUS:
        for t in REGRESSION_CORPUS:
            base[(s, t)] = eng.embeds(T(s), T(t)).answer
    for order, verdicts in seed23_verdicts:
        for (s, t), expect in base.items():
            got = verdicts[(s, t)].answer
            # a pair the default order decides stays decided, the same way
            if expect != UNKNOWN:
                assert got == expect, (s, t, order[:5])


def test_cyclic_search_reuses_unknowns():
    # under this rule order the search of r <= r is cyclic; UNKNOWNs
    # memoized with the open goals they were cut on keep it small
    rng = random.Random(23)
    for _ in range(2):
        order = list(DEFAULT_RULE_ORDER)
        rng.shuffle(order)
    other = Engine(rule_order=order)
    assert other.embeds(T("r"), T("r")).is_yes
    stats = other.search_stats()
    assert stats["goals"] <= 50_000, stats
    assert stats["cycle_cuts"] > 0 and stats["unknown_reuses"] > 0, stats
    # an UNKNOWN cut on goals that are no longer open answers nothing
    # outside them: asked again at top level, the goal is searched anew
    conditional = other._unknown_deps
    assert conditional
    for s, t in list(conditional)[:5]:
        goals = other.search_stats()["goals"]
        other.embeds(s, t, depth=other._unknown_depth[(s, t)])
        assert other.search_stats()["goals"] > goals, (s, t)


def test_unknown_rule_rejected():
    with pytest.raises(ValueError):
        Engine(rule_order=("R-BOGUS",))


def test_no_choice_engine_stays_sound(eng):
    restricted = Engine(use_choice=False)
    for s in REGRESSION_CORPUS[:12]:
        for t in REGRESSION_CORPUS[:12]:
            v, w = eng.embeds(T(s), T(t)), restricted.embeds(T(s), T(t))
            if v.decided and w.decided:
                assert v.answer == w.answer, (s, t)


def test_choice_axiom_tagged(eng):
    # the separability refutation itself is choice-free ...
    v = eng.embeds(T("r*r"), T("r"))
    assert v.is_no and v.certificate["axioms"] == []
    # ... but the product-closure refutation for the continuum is not
    prof = eng.classify_type(T("r"))
    assert prof.product_closed.is_no
    assert "AC" in prof.product_closed.certificate["axioms"]
    # without choice the engine withholds that classification
    restricted = Engine(use_choice=False)
    assert not restricted.classify_type(T("r")).product_closed.decided


# R-SEP-SUM's join: s <= t from a cut (phi, psi) of s and a cut
# (tau, rho) of t with phi <= tau and psi <= rho YES


def _join_nodes(certificates):
    return [n for n in distinct_nodes(certificates)
            if n["rule"] == "R-SEP-SUM"
            and n["instantiation"]["variant"] == "join"]


def test_join_decides_z_below_geomrev_w(eng):
    # z and w~ + w (which normalizes to z) are the corpus terms whose
    # embedding into geomrev(w) only a split of z at its cut proves
    for s in ("z", "w~ + w"):
        v = eng.embeds(T(s), T("geomrev(w)"))
        assert v.is_yes, s
        assert _join_nodes([v.certificate]), s
        assert replay_certificate(v.certificate), s


def test_join_mutants_rejected(eng):
    v = eng.embeds(T("z"), T("geomrev(w)"))
    (node,) = _join_nodes([v.certificate])
    assert replay_certificate(node)
    inst, prem = node["instantiation"], node["premises"]
    refuted = eng.embeds(T("w"), T("w~")).certificate
    assert refuted["answer"] == NO
    mutants = [dict(node, answer=NO), dict(node, premises=prem[::-1])]
    for key in ("s_cut", "t_cut"):
        for shift in (-1, 1):
            mutants.append(dict(node, instantiation=dict(
                inst, **{key: inst[key] + shift})))
    for i in range(2):
        for bad in (dict(prem[i], answer=NO), refuted):
            mutants.append(dict(node, premises=prem[:i] + [bad] + prem[i + 1:]))
    for bad in mutants:
        assert not replay_certificate(bad), json.dumps(bad)[:400]


def test_join_never_splits_a_sum(rule_nodes):
    # z + 1 <= z + 2 joins at (z, 1) and (z, 2), but s is a Sum.  Fresh
    # engines: the session engine would keep z + 1 alive, and with it
    # any powers of z + 1 a CLI test built, which the whole-subtree
    # oracles of test_interning cannot walk
    s, t = T("z + 1"), T("z + 2")
    assert isinstance(s, Sum) and Engine().embeds(s, t).is_yes
    assert Engine()._rule_r_sep_sum(s, t, 8) is None
    assert Engine()._rule_r_sep_sum(T("z"), T("geomrev(w)"), 8) is not None
    joins = _join_nodes(rule_nodes)
    assert joins
    assert not any(isinstance(parse_normalized(n["s"]), Sum) for n in joins)


def test_decided_goals_leave_no_unknown_entry():
    # under the second seed-23 order, the search of r <= r stores
    # 2 + r <= r as a conditional UNKNOWN; asking the conditional goals
    # again at top level decides it YES, and its UNKNOWN entries must go
    # with the decision
    rng = random.Random(23)
    for _ in range(2):
        order = list(DEFAULT_RULE_ORDER)
        rng.shuffle(order)
    other = Engine(rule_order=order)
    assert other.embeds(T("r"), T("r")).is_yes
    goal = (T("2 + r"), T("r"))
    conditional = list(other._unknown_deps)
    assert goal in conditional
    for s, t in conditional:
        other.embeds(s, t, depth=other._unknown_depth.get((s, t), other.depth))
    assert other._memo[goal].is_yes
    stale = [key for key in other._memo
             if key in other._unknown_depth or key in other._unknown_deps]
    assert not stale, stale[:5]


def _in_fresh_interpreter(code):
    """The JSON that code prints, run in a fresh interpreter.  A test
    that builds high powers of a term runs so: the base keeps its powers
    for the life of a process, and the whole-subtree oracles of
    test_interning walk every live node."""
    src = str(Path(ordtypes.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout)


def test_corpus_and_geom_z_plus_1_searches_stay_small():
    # the default order decides every corpus pair ...
    fresh = Engine()
    unknown = [(s, t) for s in REGRESSION_CORPUS for t in REGRESSION_CORPUS
               if not fresh.embeds(T(s), T(t)).decided]
    assert not unknown, unknown
    # ... and classifies geom(z+1, 25) in a few thousand goals (28,059
    # without the join).  Its certificates are not read: one names a
    # power of z+1 whose printed form is about 200 MB long.
    stats = _in_fresh_interpreter("""
import json
from ordtypes.engine import Engine
from ordtypes.terms import parse_normalized
engine = Engine()
engine.classify_type(parse_normalized("geom(z+1, 25)"))
print(json.dumps(engine.search_stats()))
""")
    assert stats["goals"] < 5000, stats


def test_replay_of_cuts_past_the_power_cap_is_false():
    # the cuts of geom(z, 1024) name z^1025, past MAX_POWER
    assert _in_fresh_interpreter("""
import json
from ordtypes.engine import replay_certificate
nodes = [{"answer": "NO", "rule": rule, "s": "geom(z, 1024)",
          "t": "geom(z, 1024)", "instantiation": {}, "premises": [],
          "axioms": []} for rule in ("R-SEP-SUM", "C-SIDE-CUT")]
nodes[1]["claim"] = "strictly_indec_left"
print(json.dumps([replay_certificate(node) for node in nodes]))
""") == [False, False]


def test_eq_no_premise_must_be_the_failed_direction(eng):
    # geomrev(w) and w^(w) embed neither way; the forward refutation is
    # not certified by the backward one
    v = eng.equimorphic(T("geomrev(w)"), T("w^(w)"))
    node = v.certificate
    assert node["answer"] == NO
    assert node["instantiation"] == {"failed": "forward"}
    assert replay_certificate(node)
    backward = eng.embeds(T("w^(w)"), T("geomrev(w)")).certificate
    assert backward["answer"] == NO
    assert not replay_certificate(dict(node, premises=[backward]))
    assert replay_certificate(dict(node, instantiation={"failed": "backward"},
                                   premises=[backward]))

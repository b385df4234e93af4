"""A mutation sweep over the classification, EQ and GARRETT nodes.

Each distinct node, nested ones included, of the corpus
``classify_type``, ``square_report`` and ``equimorphic`` certificates
whose rule is a C-rule, EQ or GARRETT is mutated: its premises swapped,
a premise replaced by a node of the same rule about other terms or by a
node of another rule about the same terms, its answer flipped, and an
EQ or GARRETT node turned into its converse.  The C-PC-NO and C-SUTR-NO
nodes also have their psi and tau replaced by other corpus terms, about
any corpus subject, with every premise again a genuine certificate.

A mutant that replays is a defect unless the engine decides the
mutant's claim the same way.  (GARRETT for 0 states its own converse,
which holds.)
"""

import itertools
import json
from collections import Counter

import pytest

from ordtypes.engine import PROFILE_FIELDS, replay_certificate
from ordtypes.terms import Prod, normalize, print_term

from helpers import REGRESSION_CORPUS, T, distinct_nodes

YES, NO = "YES", "NO"

# the fewest mutants each class may have, so that the set cannot shrink
# without a failure
MIN_MUTANTS = {
    "swap": 40,
    "other-terms": 1000,
    "other-rule": 550,
    "flip": 600,
    "converse": 400,
    "psi-tau C-PC-NO": 40,
    "psi-tau C-SUTR-NO": 100,
}


def _swept(node):
    return node["rule"].startswith("C-") or node["rule"] in ("EQ", "GARRETT")


@pytest.fixture(scope="module")
def corpus_nodes(eng):
    """The distinct nodes of the corpus certificates, each rule's nodes
    in a fixed order."""
    verdicts = []
    for x in REGRESSION_CORPUS:
        prof = eng.classify_type(T(x))
        verdicts += [getattr(prof, f) for f in PROFILE_FIELDS]
        rep = eng.square_report(T(x))
        verdicts += [rep["verdict"], *rep["hypotheses"].values()]
    for x, y in itertools.product(REGRESSION_CORPUS, repeat=2):
        verdicts.append(eng.equimorphic(T(x), T(y)))
    nodes = distinct_nodes(v.certificate for v in verdicts if v.decided)
    return sorted(nodes, key=lambda n: json.dumps(n, sort_keys=True))


def _terms(node):
    return node["s"], node["t"]


def _replaced(node, i, q):
    return dict(node, premises=node["premises"][:i] + [q]
                + node["premises"][i + 1:])


def _mutants(node, nodes):
    """(class, mutant) for the node; ``nodes`` are the nodes a premise
    may be replaced by."""
    prem = node["premises"]
    for i, j in itertools.combinations(range(len(prem)), 2):
        if prem[i] != prem[j]:
            swapped = list(prem)
            swapped[i], swapped[j] = prem[j], prem[i]
            yield "swap", dict(node, premises=swapped)
    for i, q in enumerate(prem):
        same_rule = [p for p in nodes if p["rule"] == q["rule"]
                     and p["answer"] == q["answer"]
                     and p.get("claim") == q.get("claim")
                     and _terms(p) != _terms(q)]
        other_rule = [p for p in nodes if _terms(p) == _terms(q)
                      and p["rule"] != q["rule"]]
        for p in same_rule[:2]:
            yield "other-terms", _replaced(node, i, p)
        for p in other_rule[:2]:
            yield "other-rule", _replaced(node, i, p)
    yield "flip", dict(node, answer=NO if node["answer"] == YES else YES)
    if node["rule"] in ("EQ", "GARRETT"):
        yield "converse", dict(node, s=node["t"], t=node["s"])


def _product_mutants(node, eng):
    """The node, of C-PC-NO or C-SUTR-NO, with its subject, psi and tau
    replaced by corpus terms, each premise the engine's certificate of
    the goal the node's premise states about the new terms, and with the
    same answer; the genuine nodes are left out."""
    inst = node["instantiation"]
    psi, tau = T(inst["psi"]), T(inst["tau"])
    roles = {node["t"]: "x", inst["psi"]: "psi", inst["tau"]: "tau",
             print_term(normalize(Prod(psi, tau))): "prod"}
    assert len(roles) == 4, "the node's terms must tell its roles apart"
    goals = [(roles[q["s"]], roles[q["t"]], q["answer"])
             for q in node["premises"]]
    # the goals about corpus terms alone first: their answers are memoized
    order = sorted(range(len(goals)), key=lambda k: "prod" in goals[k][:2])
    corpus = [T(x) for x in REGRESSION_CORPUS]
    for x, a, b in itertools.product(corpus, repeat=3):
        terms = {"x": x, "psi": a, "tau": b}
        premises = [None] * len(goals)
        for k in order:
            s, t, answer = goals[k]
            if "prod" in (s, t):
                terms.setdefault("prod", normalize(Prod(a, b)))
            v = eng.embeds(terms[s], terms[t])
            if v.answer != answer:
                break
            premises[k] = v.certificate
        else:
            text = print_term(x)
            mutant = dict(node, s=text, t=text, premises=premises,
                          instantiation={"psi": print_term(a),
                                         "tau": print_term(b)})
            if mutant != node:
                yield mutant


def _holds(node, eng):
    """The engine decides the node's claim the way the node states."""
    if node["rule"] == "EQ":
        v = eng.equimorphic(T(node["s"]), T(node["t"]))
    elif node["rule"] == "GARRETT":
        v = eng.embeds(T(node["s"]), T(node["t"]))
    else:
        v = getattr(eng.classify_type(T(node["t"])), node["claim"])
    return v.answer == node["answer"]


def test_no_mutant_of_a_classification_node_proves_a_false_claim(
        eng, corpus_nodes):
    swept = [n for n in corpus_nodes if _swept(n)]
    assert len(swept) > 300
    mutants = [m for n in swept for m in _mutants(n, corpus_nodes)]
    for rule in ("C-PC-NO", "C-SUTR-NO"):
        templates = [n for n in swept if n["rule"] == rule]
        assert templates, rule
        mutants += [(f"psi-tau {rule}", m) for n in templates
                    for m in _product_mutants(n, eng)]
    counts = Counter(kind for kind, _ in mutants)
    defects = [(kind, m) for kind, m in mutants
               if replay_certificate(m) and not _holds(m, eng)]
    assert defects == [], [(kind, json.dumps(m)[:300])
                           for kind, m in defects[:5]]
    for kind, least in MIN_MUTANTS.items():
        assert counts[kind] >= least, (kind, counts)

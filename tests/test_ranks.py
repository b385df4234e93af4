"""The ordinal invariants of ``Facts`` -- Hausdorff rank and the ranks of
final and initial segments -- and the refutations they give R-STRUCT."""

import json
from pathlib import Path

import pytest

from ordtypes.analysis import facts
from ordtypes.engine import Engine, replay_certificate, term_cuts, term_pieces
from ordtypes.fprofile import class_sequence
from ordtypes.ordinals import OMEGA, ONE, Ordinal
from ordtypes.terms import parse_normalized

from helpers import REGRESSION_CORPUS, T

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"

RANK_FACTS = ("rank", "final_rank", "initial_rank")

_W1 = OMEGA + ONE


def _n(k):
    return Ordinal.from_int(k)


# text -> (rank, final rank, initial rank)
RANKS = {
    "0": (_n(0), _n(0), _n(0)),
    "3": (_n(0), _n(1), _n(1)),
    "w": (_n(1), _n(2), _n(1)),
    "w + 1": (_n(1), _n(2), _n(2)),
    "w^(2)": (_n(2), _n(3), _n(2)),
    "w^(w)": (OMEGA, _W1, OMEGA),
    "w~": (_n(1), _n(1), _n(2)),
    "w^(3)~": (_n(3), _n(3), _n(4)),
    "z": (_n(1), _n(2), _n(2)),
    "z*z": (_n(2), _n(3), _n(3)),
    "w*z": (_n(2), _n(3), _n(3)),
    "z*w~": (_n(2), _n(2), _n(3)),
    "w^(2) + w~": (_n(2), _n(3), _n(3)),
    "geom(z)": (OMEGA, _W1, OMEGA),
    "geomrev(z)": (OMEGA, OMEGA, _W1),
    "geomrev(z + 1, 3)": (OMEGA, OMEGA, _W1),
    "geomrev(z) + geomrev(z)": (OMEGA, _W1, _W1),
    "revsum(w^(2))": (_n(2), _n(2), _n(3)),
    "revsum(w^(2)*2)": (_n(3), _n(3), _n(4)),
    "revsum(w^(2)*2)~": (_n(3), _n(4), _n(3)),
    "q": (None, None, None),
    "z*q": (None, None, None),
    "r + w": (None, None, None),
}


def _invariants(t):
    f = facts(t)
    return tuple(getattr(f, name) for name in RANK_FACTS)


def test_rank_values():
    for text, want in RANKS.items():
        assert _invariants(T(text)) == want, text


def _reference(workload):
    return json.loads((REFERENCE / f"{workload}.json").read_text())["passes"]


def _random_texts():
    return sorted({x for p in _reference("random") for x in p["profiles"]})


def test_rank_at_most_one_iff_finitely_many_condensation_classes():
    # the first finite condensation is finite exactly when every class
    # kind of its census has a finite multiplicity
    checked = 0
    for text in REGRESSION_CORPUS + tuple(_random_texts()):
        t = parse_normalized(text)
        rank = facts(t).rank
        if rank is None:
            continue
        census = class_sequence(t).census
        assert (rank <= ONE) == all(m != float("inf") for _, m in census), text
        checked += 1
    assert checked > 500


def test_no_reference_yes_pair_has_an_invariant_above_its_target():
    # the committed reference answers of the benchmark: the corpus under
    # the default order and the 12 shuffled orders, and the random family
    yes = no = refuted = 0
    for workload in ("corpus", "shuffled", "random"):
        for p in _reference(workload):
            for key, answer in p["embeds"].items():
                s, t = (parse_normalized(x) for x in key.split("\t"))
                fs, ft = facts(s), facts(t)
                if fs.rank is None or ft.rank is None:
                    continue
                above = [name for name in RANK_FACTS
                         if getattr(ft, name) < getattr(fs, name)]
                if answer == "YES":
                    yes += 1
                    assert not above, (workload, key)
                elif answer == "NO":
                    no += 1
                    refuted += bool(above)
    assert yes > 1000 and no > 1000 and refuted > 100, (yes, no, refuted)


def test_pieces_and_cuts_have_no_invariant_above_their_term():
    # the pieces and both sides of each cut of t embed in t: powers of a
    # geometric base, tails of geometric sums and runs of sum parts
    checked = 0
    for text in REGRESSION_CORPUS + tuple(_random_texts()):
        t = parse_normalized(text)
        if facts(t).rank is None:
            continue
        sides = tuple(x for cut in term_cuts(t) for x in cut)
        for p in term_pieces(t) + sides:
            pairs = zip(_invariants(p), _invariants(t))
            assert all(a <= b for a, b in pairs), (text, p)
            checked += 1
    assert checked > 2000


def test_struct_names_the_invariant_it_refutes_by():
    v = Engine().embeds(T("geomrev(z) + geomrev(z)"), T("geomrev(z)"))
    cert = v.certificate
    assert v.is_no and cert["rule"] == "R-STRUCT"
    assert cert["instantiation"] == {"fact": "final_rank", "s": "w + 1",
                                     "t": "w"}
    assert replay_certificate(cert)
    forged = dict(cert, instantiation=dict(cert["instantiation"], t="w + 1"))
    assert not replay_certificate(forged)


def test_geometric_sums_of_z_decide_their_strict_sides():
    # the two calls that kept these sides open are refuted by rank:
    # geomrev(z) + geomrev(z) by final rank, the square by rank
    eng = Engine()
    prof = eng.classify_type(T("geomrev(z)"))
    assert prof.strictly_indec_left.is_yes
    assert prof.strictly_indec_right.is_no
    assert eng.search_stats()["goals"] < 1000, eng.search_stats()
    assert replay_certificate(prof.strictly_indec_left.certificate)
    prof = Engine().classify_type(T("geom(z)"))
    assert prof.strictly_indec_right.is_yes
    assert replay_certificate(prof.strictly_indec_right.certificate)


@pytest.mark.parametrize("s, t", [("geomrev(z + 1, 300)", "z*z"),
                                  ("w^(w)", "z*z*z"),
                                  ("geom(z)", "geomrev(z)")])
def test_rank_refutes_at_once(s, t):
    eng = Engine()
    v = eng.embeds(T(s), T(t))
    assert v.is_no and v.certificate["rule"] == "R-STRUCT"
    assert eng.search_stats()["goals"] == 1
    assert replay_certificate(v.certificate)

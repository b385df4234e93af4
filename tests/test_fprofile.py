import random

from ordtypes.condense import finite_condensation
from ordtypes.fprofile import class_sequence, f_class_profile
from ordtypes.points import sample_points
from ordtypes.terms import (
    ZETA,
    Prod,
    normalize,
    parse_normalized,
    parse_term,
    print_term,
)

from helpers import rand_scattered_term

T = parse_normalized

FROZEN = {
    "w + 1": ("finitely-many-finite", 1),
    "geomrev(w)": ("finitely-many-finite", 1),
    "geomrev(w, 1)": ("all-infinite", 0),
    "z": ("all-infinite", 0),
    "w": ("all-infinite", 0),
    "w~": ("all-infinite", 0),
    "z*q": ("all-infinite", 0),
    "q": ("infinitely-many-finite", None),
    "q*w": ("infinitely-many-finite", None),
    "3": ("finitely-many-finite", 1),
    "w*5": ("all-infinite", 0),
    "5*w": ("all-infinite", 0),
    "w~ + 5 + w": ("all-infinite", 0),  # the 5 closes into a zeta block
    "w + 5 + w": ("all-infinite", 0),  # folds to the ordinal w*2
    "w + 5 + w~": ("finitely-many-finite", 1),
    # geom(w) folds to the ordinal w^(w); its leading singleton block
    # merges into the following omega block
    "geom(w)": ("all-infinite", 0),
    "geom(w, 1)": ("all-infinite", 0),
}


def test_frozen_profiles():
    for text, (status, count) in FROZEN.items():
        p = f_class_profile(T(text))
        assert (p.status, p.finite_class_count) == (status, count), text


def test_raw_and_normalized_parses_give_one_profile():
    # both read the normal form: a raw w~ is a reversal, and raw geom(0)
    # (the sum 0^0 + 0 + ... = 1) and geomrev(1, 1) (omega*) are no
    # geometric sums of their own
    for text in ("w~", "geom(0)", "geomrev(1, 1)"):
        raw, nf = parse_term(text), parse_normalized(text)
        assert raw is not nf, text
        assert f_class_profile(raw) == f_class_profile(nf), text
        assert class_sequence(raw) == class_sequence(nf), text


def test_census_frozen():
    p = f_class_profile(T("z*3"))
    assert p.status == "all-infinite"
    assert p.census == (("zeta", 3),)
    p = f_class_profile(T("w + 1"))
    assert dict(p.census) == {"omega": 1, "finite:1": 1}
    assert p.head == "omega" and p.tail == "finite:1"


def test_profile_reversal_symmetric():
    from ordtypes.terms import reverse_term

    rng = random.Random(13)
    swap = {"omega": "omega-star", "omega-star": "omega"}
    for _ in range(100):
        t = normalize(rand_scattered_term(rng, 3))
        p = f_class_profile(t)
        q = f_class_profile(reverse_term(t))
        assert p.status == q.status, print_term(t)
        assert p.finite_class_count == q.finite_class_count
        rev_census = {swap.get(d, d): m for d, m in p.census}
        assert rev_census == dict(q.census), print_term(t)


def test_zeta_padding_all_infinite():
    rng = random.Random(17)
    for _ in range(30):
        t = normalize(Prod(ZETA, rand_scattered_term(rng, 2)))
        assert f_class_profile(t).status == "all-infinite", print_term(t)


def test_symbolic_count_matches_window_oracle():
    rng = random.Random(19)
    done = 0
    while done < 40:
        t = normalize(rand_scattered_term(rng, 3))
        prof = f_class_profile(t)
        if prof.finite_class_count is None:
            continue  # a finite window cannot count infinitely many
        if len(sample_points(t)) >= 60:
            continue  # saturated windows may truncate classes
        done += 1
        r = finite_condensation(t)
        found = sum(1 for c in r.classes if c.tag and c.tag[0] == "fin")
        assert found == prof.finite_class_count, print_term(t)

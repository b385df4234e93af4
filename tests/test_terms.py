import random
import sys

import pytest

from ordtypes.ordinals import OMEGA, ONE, ZERO, Ordinal
from ordtypes.terms import (
    ETA,
    LAMBDA,
    OMEGA_STAR,
    OMEGA_T,
    ONE_T,
    ZETA,
    GeomOmega,
    GeomOmegaStar,
    OrdLeaf,
    ParseError,
    Prod,
    Rev,
    RevOrd,
    SeqSumStar,
    Sum,
    _normalize,
    _reverse_normal,
    co_ordinal,
    fin,
    normalize,
    parse_normalized,
    parse_term,
    print_term,
    pure_ordinal,
    rev_ordinal_term,
    reverse_term,
)

from helpers import rand_term

N = Ordinal.from_int
T = parse_normalized


# ---------------------------------------------------------------------------
# parsing and printing


def test_parse_atoms():
    assert parse_term("w") == OMEGA_T
    assert parse_term("z") == ZETA
    assert parse_term("q") == ETA
    assert parse_term("r") == LAMBDA
    assert parse_term("5") == fin(5)
    assert parse_term("w^(2)") == OrdLeaf(OMEGA ** N(2))
    assert parse_term("w~") == Rev(OMEGA_T)


def test_parse_structure():
    t = parse_term("w + z*q")
    assert isinstance(t, Sum) and isinstance(t.parts[1], Prod)
    g = parse_term("geom(w, 1)")
    assert g == GeomOmega(OMEGA_T, 1)
    gr = parse_term("geomrev(w)")
    assert gr == GeomOmegaStar(OMEGA_T, 0)
    rs = parse_term("revsum(w^(w))")
    assert rs == SeqSumStar(OMEGA**OMEGA)


def test_parse_errors():
    for bad in ("", "w +", "(w", "geom(w", "x", "w^(q)", "revsum(5)",
                "w w", "1 2"):
        with pytest.raises(ParseError):
            parse_term(bad)


def test_print_parse_round_trip_frozen():
    for text in ("w", "z", "q", "r", "w~", "w^(2)~", "w + 1", "z*q",
                 "geom(w)", "geomrev(w, 1)", "w^(w)", "3*q + w~"):
        t = T(text)
        assert normalize(parse_term(print_term(t))) == t


def test_print_parse_round_trip_random():
    rng = random.Random(3)
    for _ in range(300):
        t = normalize(rand_term(rng, 3))
        assert normalize(parse_term(print_term(t))) == t


# ---------------------------------------------------------------------------
# normalization


def test_normalize_idempotent_random():
    # normalize returns the normal form kept on the node, so check the
    # normalizer itself: one step of it fixes the normal form
    rng = random.Random(4)
    for _ in range(300):
        t = normalize(rand_term(rng, 3))
        assert normalize(t) == t
        assert _normalize(t) is t


def test_normalize_frozen_laws():
    assert T("0 + w + 0") == OMEGA_T
    assert T("w*1") == OMEGA_T
    assert T("1*w") == OMEGA_T
    assert T("(w + w)") == T("w*2")
    assert T("2 + 3") == fin(5)
    assert T("w~~") == OMEGA_T
    assert T("w*w") == OrdLeaf(OMEGA * OMEGA)
    assert T("(w + 1) + w~") == T("w + 1 + w~")  # flattening


def test_reverse_involution():
    rng = random.Random(9)
    for _ in range(300):
        t = normalize(rand_term(rng, 3))
        assert normalize(reverse_term(reverse_term(t))) == t
        assert _reverse_normal(reverse_term(t)) is t


def test_reverse_deep_chain():
    # each link nests the one before under a Sum, a Prod, a geom or a
    # geomrev, one normalizer step each, so the chain is built without
    # recursion and is far deeper than the recursion limit: reversing it
    # must not take a stack frame per level
    links = (lambda t: Prod(Sum((t, ONE_T)), ZETA),
             lambda t: GeomOmega(t, 0),
             lambda t: GeomOmegaStar(t, 0))
    n = 3 * sys.getrecursionlimit()
    t = ZETA
    for k in range(n):
        t = normalize(links[k % 3](t))
    links_kept, spine = 0, t
    while spine is not ZETA:
        links_kept += 1
        spine = getattr(spine, "base", None) or spine.inner.parts[0]
    assert links_kept == n
    r = reverse_term(t)
    assert isinstance(r, GeomOmega) and reverse_term(r) is t


def test_reverse_frozen():
    assert normalize(reverse_term(OMEGA_T)) == OMEGA_STAR
    assert normalize(reverse_term(ZETA)) == ZETA
    assert normalize(reverse_term(ETA)) == ETA
    assert normalize(reverse_term(T("w + 1"))) == T("1 + w~")


def test_pure_and_co_ordinal():
    assert pure_ordinal(T("w^(2)*3 + w + 5")) == (
        OMEGA ** N(2) * N(3) + OMEGA + N(5)
    )
    assert pure_ordinal(ZETA) is None
    assert co_ordinal(T("5 + w~")) == OMEGA + N(5)
    assert co_ordinal(OMEGA_T) is None
    assert pure_ordinal(T("0")) == ZERO
    assert pure_ordinal(ONE_T) == ONE


def test_rev_ordinal_term_round_trip():
    rng = random.Random(2)
    from helpers import rand_ordinal

    for _ in range(200):
        a = rand_ordinal(rng, 2)
        t = normalize(rev_ordinal_term(a))
        assert co_ordinal(t) == a


def test_rev_ord_invariant():
    # RevOrd carries only powers of w; everything else normalizes away
    t = T("(w + 1)~")
    assert not isinstance(t, RevOrd) or t.power == OMEGA
    assert T("w~") == RevOrd(OMEGA)

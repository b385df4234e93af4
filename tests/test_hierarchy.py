import json
import logging

import pytest

from ordtypes.finite import CapacityError
from ordtypes.fprofile import f_class_profile
from ordtypes.hierarchy import (
    Generator,
    SumSpec,
    no_finite_F_witness,
    realize,
    spec_from_json,
    spec_to_json,
    validate_sum_spec,
)
from ordtypes.terms import parse_term, print_term

P = parse_term


def G(shape, base=None, prefix=(), tail=None):
    return Generator(
        shape,
        base=P(base) if base else None,
        prefix=tuple(P(p) for p in prefix),
        tail=tail,
    )


# ---------------------------------------------------------------------------
# construction and JSON


def test_constructor_guards():
    with pytest.raises(ValueError):
        Generator("spiral", base=P("w"))
    with pytest.raises(ValueError):
        Generator("constant")  # no base
    with pytest.raises(ValueError):
        Generator("eventually-constant", base=P("w"))  # no prefix
    with pytest.raises(ValueError):
        Generator("prefix", prefix=(P("1"),))  # no tail
    with pytest.raises(ValueError):
        SumSpec("omega-squared-sum", G("constant", "w"))


def test_generator_term_at():
    g = G("geometric", "w")
    assert [print_term(g.term_at(n)) for n in range(3)] == [
        "w", "w^(2)", "w^(3)"
    ]
    g = G("eventually-constant", "z", prefix=("1", "2"))
    assert [print_term(g.term_at(n)) for n in range(4)] == [
        "1", "2", "z", "z"
    ]
    g = G("prefix", prefix=("5",), tail=G("constant", "w"))
    assert [print_term(g.term_at(n)) for n in range(3)] == ["5", "w", "w"]


def test_json_round_trip():
    specs = [
        SumSpec("omega-sum", G("geometric", "w")),
        SumSpec("eta-shuffle", G("constant", "z")),
        SumSpec("omega-star-sum",
                G("prefix", prefix=("1", "w"), tail=G("constant", "z"))),
    ]
    for s in specs:
        doc = spec_to_json(s)
        assert spec_from_json(json.dumps(doc)) == s
        assert spec_from_json(doc) == s


def test_spec_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        spec_from_json("[1, 2]")
    with pytest.raises(ValueError):
        spec_from_json({"kind": "omega-sum"})
    with pytest.raises(ValueError):
        spec_from_json({"kind": "omega-sum", "generator": {"nope": 1}})


# ---------------------------------------------------------------------------
# validation


def test_validate_accepts_regular_specs(eng):
    for s in (
        SumSpec("omega-sum", G("constant", "w")),
        SumSpec("omega-sum", G("geometric", "w")),
        SumSpec("eta-shuffle", G("constant", "1")),
        SumSpec("omega-star-sum", G("geometric", "z")),
        SumSpec("omega-sum",
                G("eventually-constant", "w", prefix=("1", "2"))),
    ):
        assert validate_sum_spec(s, eng).is_yes, spec_to_json(s)


def test_validate_rejects_shrinking_prefix(eng):
    # a prefix entry that does not re-embed into the tail values breaks
    # the unbounded-recurrence condition
    s = SumSpec("omega-sum",
                G("prefix", prefix=("w",), tail=G("constant", "1")))
    v = validate_sum_spec(s, eng)
    assert v.is_no
    assert v.counterexample_index == 0


# ---------------------------------------------------------------------------
# realization


def test_realize_frozen():
    cases = {
        ("omega-sum", "constant", "w"): "w^(2)",
        ("omega-sum", "constant", "3"): "w",
        ("omega-sum", "geometric", "w"): "w^(w)",
        ("omega-star-sum", "geometric", "w"): "geomrev(w, 1)",
        ("omega-star-sum", "constant", "w"): "w*w~",
        ("eta-shuffle", "constant", "z"): "z*q",
        ("eta-shuffle", "constant", "1"): "q",
    }
    for (kind, shape, base), expect in cases.items():
        assert print_term(realize(SumSpec(kind, G(shape, base)))) == expect


def test_realize_mixed_shuffle_rejected():
    s = SumSpec("eta-shuffle",
                G("eventually-constant", "z", prefix=("w",)))
    with pytest.raises(CapacityError):
        realize(s)


# ---------------------------------------------------------------------------
# witnesses


def test_witness_keeps_class_infinite_realizations(eng):
    s = SumSpec("omega-sum", G("geometric", "w"))
    w = no_finite_F_witness(s, eng)
    assert print_term(w) == "w^(w)"
    assert f_class_profile(w).status == "all-infinite"


def test_witness_collapses_singleton_sums(eng):
    w = no_finite_F_witness(SumSpec("omega-sum", G("constant", "1")), eng)
    assert print_term(w) == "w"
    w = no_finite_F_witness(
        SumSpec("omega-star-sum", G("constant", "1")), eng
    )
    assert print_term(w) == "w~"
    w = no_finite_F_witness(SumSpec("eta-shuffle", G("constant", "1")), eng)
    assert print_term(w) == "w*q"


def test_witness_pads_finite_summands(eng):
    w = no_finite_F_witness(SumSpec("eta-shuffle", G("constant", "3")), eng)
    assert print_term(w) == "3*z*q"
    assert f_class_profile(w).status == "all-infinite"
    assert eng.equimorphic(realize(
        SumSpec("eta-shuffle", G("constant", "3"))), w).is_yes


def test_witness_refusal_is_logged_not_raised(eng, caplog):
    s = SumSpec("omega-sum",
                G("prefix", prefix=("w",), tail=G("constant", "1")))
    with caplog.at_level(logging.WARNING, logger="ordtypes.hierarchy"):
        assert no_finite_F_witness(s, eng) is None
    assert any("witness refused" in r.message for r in caplog.records)


def test_witness_equimorphism_certified(eng):
    s = SumSpec("omega-star-sum", G("geometric", "w"))
    w = no_finite_F_witness(s, eng)
    # the repaired geometric star sum is the classic example whose
    # plain realization has exactly one finite class
    from ordtypes.terms import parse_normalized

    plain = parse_normalized("geomrev(w)")
    assert f_class_profile(plain).finite_class_count == 1
    assert f_class_profile(w).status == "all-infinite"
    assert eng.equimorphic(plain, w).is_yes

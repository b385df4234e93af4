import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordtypes.ordinals import (
    OMEGA,
    ONE,
    ZERO,
    CapacityError,
    Ordinal,
    classify_ordinal,
    cofinality,
    fundamental_sequence,
    ord_cmp,
    ord_from_cnf,
    s_untranscendability_witness,
    transcendability_witness,
)

from helpers import rand_ordinal

W = OMEGA
N = Ordinal.from_int


@st.composite
def ordinals(draw, depth=3):
    rng = draw(st.randoms(use_true_random=False))
    return rand_ordinal(rng, depth)


# ---------------------------------------------------------------------------
# construction and comparison


def test_construction_rejects_bad_cnf():
    with pytest.raises(ValueError):
        Ordinal(((ZERO, 0),))
    with pytest.raises(ValueError):
        Ordinal(((ZERO, -1),))
    with pytest.raises(ValueError):
        Ordinal(((ONE, 1), (ONE, 1)))  # exponents must strictly decrease
    with pytest.raises(ValueError):
        Ordinal(((ONE, 1), (W, 1)))  # increasing exponents
    with pytest.raises(TypeError):
        Ordinal(((1, 1),))


def test_immutable():
    with pytest.raises(AttributeError):
        W.terms_ = ()


def test_depth_cap():
    a = ONE
    with pytest.raises(CapacityError):
        for _ in range(40):
            a = Ordinal(((a, 1),))


def test_from_int_round_trip():
    for n in range(10):
        a = N(n)
        assert a.is_finite() and a.as_int() == n
    with pytest.raises(ValueError):
        N(-1)


def test_predicates():
    assert ZERO.is_zero() and ZERO.is_finite() and not ZERO.is_limit()
    assert not ZERO.is_successor()
    assert N(3).is_successor() and N(3).pred() == N(2)
    assert W.is_limit() and not W.is_successor()
    assert (W + ONE).is_successor() and (W + ONE).pred() == W
    with pytest.raises(ValueError):
        W.pred()
    assert (W + N(2)).finite_part == 2
    assert (W + N(2)).limit_part == W
    assert W.is_additively_indecomposable()
    assert not (W + ONE).is_additively_indecomposable()
    assert ZERO.is_additively_indecomposable()


def test_str_forms():
    assert str(ZERO) == "0"
    assert str(N(7)) == "7"
    assert str(W) == "w"
    assert str(W * N(2) + N(3)) == "w*2 + 3"
    assert str(W**N(2)) == "w^(2)"
    assert str(W**W) == "w^(w)"


def test_ord_cmp():
    assert ord_cmp(W, W) == "EQ"
    assert ord_cmp(ONE, W) == "LT"
    assert ord_cmp(W, ONE) == "GT"


def test_ord_from_cnf_sums_in_order():
    # pieces are added left to right with ordinal addition
    assert ord_from_cnf([(ZERO, 2), (ONE, 1), (ZERO, 1)]) == W + ONE
    assert ord_from_cnf([(ONE, 1), (ZERO, 3)]) == W + N(3)


@given(ordinals(), ordinals())
def test_comparison_total(a, b):
    assert (a < b) + (b < a) + (a == b) == 1


def _cnf_less(a, b):
    """a < b read off the CNFs: the first term where they differ decides,
    by its exponent, then its coefficient; else the shorter is less."""
    for (e1, c1), (e2, c2) in zip(a.terms, b.terms):
        if e1.terms != e2.terms:
            return _cnf_less(e1, e2)
        if c1 != c2:
            return c1 < c2
    return len(a.terms) < len(b.terms)


@given(ordinals(), ordinals())
def test_comparison_is_the_cnf_order(a, b):
    lt, gt = _cnf_less(a, b), _cnf_less(b, a)
    assert (a < b, a > b, a <= b, a >= b) == (lt, gt, not gt, not lt)
    assert max(a, b) == (b if lt else a)


@given(ordinals(), ordinals(), ordinals())
def test_comparison_transitive(a, b, c):
    if a < b and b < c:
        assert a < c


# ---------------------------------------------------------------------------
# arithmetic laws


def test_arithmetic_frozen_examples():
    assert W + W == W * N(2)
    assert ONE + W == W  # left absorption
    assert W + ONE != W
    assert N(2) * W == W  # w copies of 2
    assert W * N(2) == W + W
    assert (W + ONE) * W == W * W
    assert W * W == W ** N(2)
    assert N(2) ** W == W
    assert N(2) ** (W + ONE) == W * N(2)
    assert (W ** W) * W == W ** (W + ONE)
    assert W ** ZERO == ONE
    assert ZERO ** W == ZERO


@given(ordinals(), ordinals(), ordinals())
def test_add_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(ordinals())
def test_add_zero(a):
    assert a + ZERO == a and ZERO + a == a


@settings(max_examples=50)
@given(ordinals(2), ordinals(2), ordinals(2))
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(ordinals(2), ordinals(2), ordinals(2))
def test_left_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(ordinals(), ordinals())
def test_add_right_monotone(a, b):
    if a < b:
        assert a + ONE <= b + ONE
        assert not (b + a < b)


@given(ordinals(), ordinals())
def test_left_subtraction(a, b):
    lo, hi = (a, b) if a <= b else (b, a)
    assert lo + (hi - lo) == hi
    if lo < hi:
        with pytest.raises(ValueError):
            lo - hi


@settings(max_examples=50)
@given(ordinals(2), ordinals(1), ordinals(1))
def test_pow_adds_exponents(a, b, c):
    assert a ** (b + c) == (a**b) * (a**c)


@given(ordinals())
def test_successor_pred_inverse(a):
    s = a + ONE
    assert s.is_successor() and s.pred() == a


# ---------------------------------------------------------------------------
# cofinality and fundamental sequences


def test_cofinality_frozen():
    assert cofinality(ZERO) == ZERO
    assert cofinality(N(5)) == ONE
    assert cofinality(W) == W
    assert cofinality(W + ONE) == ONE
    assert cofinality(W * W) == W
    assert cofinality(W**W) == W


def test_fundamental_sequence_frozen():
    w2 = W ** N(2)
    assert [fundamental_sequence(w2, n) for n in range(4)] == [
        ZERO, W, W * N(2), W * N(3)
    ]
    ww = W**W
    # w^(w)[n] = w^(w[n]) = w^n, so the sequence starts at w^0 = 1
    assert [fundamental_sequence(ww, n) for n in range(4)] == [
        ONE, W, W ** N(2), W ** N(3)
    ]


@settings(max_examples=60)
@given(ordinals())
def test_fundamental_sequence_increasing_below(a):
    if not a.is_limit():
        return
    prev = None
    for n in range(5):
        x = fundamental_sequence(a, n)
        assert x < a
        if prev is not None:
            assert prev <= x
        prev = x


# ---------------------------------------------------------------------------
# classification


def _untranscendable_expected(a: Ordinal) -> bool:
    # independent restatement: {0, 1, 2} plus the powers w^(w^b)
    if a.is_finite():
        return a.as_int() <= 2
    if len(a.terms) != 1 or a.terms[0][1] != 1:
        return False
    e = a.terms[0][0]
    return len(e.terms) == 1 and e.terms[0][1] == 1


def test_untranscendable_frozen_members():
    for a in (ZERO, ONE, N(2), W, W**W, W ** (W**W), W ** (W ** N(2))):
        assert classify_ordinal(a).untranscendable, a
    # w^(w*2) is a power of w but its exponent is decomposable
    for a in (N(3), W + ONE, W * N(2), W ** N(2), W**W + ONE,
              W ** (W * N(2))):
        assert not classify_ordinal(a).untranscendable, a


def test_classify_random_corpus():
    import random

    rng = random.Random(5)
    for _ in range(2000):
        a = rand_ordinal(rng, 3)
        p = classify_ordinal(a)
        assert p.untranscendable == _untranscendable_expected(a)
        assert p.additively_indecomposable == p.sum_closed
        assert p.untranscendable == p.product_closed
        if p.s_untranscendable:
            assert p.untranscendable
        if p.delta_number:
            assert p.untranscendable or a == ONE


def test_s_untranscendable_exactly_small_and_omega():
    members = {ZERO, ONE, N(2), W}
    probes = [ZERO, ONE, N(2), N(3), W, W + ONE, W * N(2), W ** N(2),
              W**W, W ** (W ** N(2))]
    for a in probes:
        assert classify_ordinal(a).s_untranscendable == (a in members), a


def test_delta_numbers():
    assert classify_ordinal(ONE).delta_number
    assert classify_ordinal(W).delta_number
    assert classify_ordinal(W**W).delta_number
    assert not classify_ordinal(ZERO).delta_number
    assert not classify_ordinal(N(2)).delta_number
    assert not classify_ordinal(W ** N(2)).delta_number


def test_multiplicative_flags():
    assert classify_ordinal(N(2)).multiplicatively_principal
    assert classify_ordinal(N(3)).multiplicatively_indecomposable  # prime
    assert not classify_ordinal(N(4)).multiplicatively_indecomposable
    assert classify_ordinal(W + ONE).multiplicatively_indecomposable
    assert not classify_ordinal(W + N(2)).multiplicatively_indecomposable


# ---------------------------------------------------------------------------
# witnesses


def test_transcendability_witness_none_iff_untranscendable():
    import random

    rng = random.Random(11)
    for _ in range(500):
        a = rand_ordinal(rng, 3)
        w = transcendability_witness(a)
        if classify_ordinal(a).untranscendable:
            assert w is None
        else:
            psi, tau = w
            assert psi < a and tau < a and a <= psi * tau


def test_s_untranscendability_witness_shapes():
    from ordtypes.terms import OrdLeaf, SeqSumStar, normalize

    assert s_untranscendability_witness(W) is None
    assert s_untranscendability_witness(N(2)) is None
    rho, tau = s_untranscendability_witness(N(5))
    assert rho == OrdLeaf(N(4)) and tau == N(4)
    rho, tau = s_untranscendability_witness(W ** N(2))
    assert rho == OrdLeaf(W) and tau == W
    rho, tau = s_untranscendability_witness(W * N(2))
    assert rho == OrdLeaf(W) and tau == W
    rho, tau = s_untranscendability_witness(W**W)
    assert rho == normalize(SeqSumStar(W**W)) and tau == W

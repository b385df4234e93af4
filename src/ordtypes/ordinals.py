"""Exact ordinal arithmetic below epsilon_0 in Cantor normal form.

An ordinal is stored as a tuple of (exponent, coefficient) pairs with
strictly decreasing exponents and positive integer coefficients; the
empty tuple is 0 and ``w^0 * n`` is the natural number n.  All values
are immutable and hashable, so they can be shared freely across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

#: Default cap on CNF nesting depth; exceeding it raises CapacityError
#: instead of silently truncating.
DEFAULT_DEPTH_CAP = 32


class CapacityError(Exception):
    """Raised when a value would exceed the representable universe."""


class Ordinal:
    """An ordinal below epsilon_0 in Cantor normal form."""

    __slots__ = ("_terms", "_depth", "_hash", "_key")

    _terms: Tuple[Tuple["Ordinal", int], ...]
    _depth: int
    _hash: Optional[int]  # the hash of _terms, once computed
    _key: Optional[tuple]  # the comparison key, once computed

    def __init__(self, terms: Iterable[Tuple["Ordinal", int]] = ()):
        terms = tuple(terms)
        prev = None
        depth = 1
        for exp, coeff in terms:
            if not isinstance(exp, Ordinal):
                raise TypeError("exponent must be an Ordinal")
            if not isinstance(coeff, int) or coeff <= 0:
                raise ValueError("coefficient must be a positive integer")
            if prev is not None and not (exp < prev):
                raise ValueError("exponents must be strictly decreasing")
            prev = exp
            depth = max(depth, exp._depth + 1)
        if depth > DEFAULT_DEPTH_CAP:
            raise CapacityError(
                f"CNF nesting depth {depth} exceeds cap {DEFAULT_DEPTH_CAP}"
            )
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_depth", depth)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("Ordinal is immutable")

    def __reduce__(self):
        # rebuilt by the constructor: slot state would be restored
        # through __setattr__
        return Ordinal, (self._terms,)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "Ordinal":
        if n < 0:
            raise ValueError("ordinals are non-negative")
        if n == 0:
            return ZERO
        return Ordinal(((ZERO, n),))

    @property
    def terms(self) -> Tuple[Tuple["Ordinal", int], ...]:
        return self._terms

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_finite(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and self._terms[0][0].is_zero())

    def as_int(self) -> int:
        if not self.is_finite():
            raise ValueError("not a finite ordinal")
        return self._terms[0][1] if self._terms else 0

    def is_successor(self) -> bool:
        return bool(self._terms) and self._terms[-1][0].is_zero()

    def is_limit(self) -> bool:
        return bool(self._terms) and not self._terms[-1][0].is_zero()

    @property
    def finite_part(self) -> int:
        """The trailing w^0 coefficient (0 when absent)."""
        if self._terms and self._terms[-1][0].is_zero():
            return self._terms[-1][1]
        return 0

    @property
    def limit_part(self) -> "Ordinal":
        """Self with the trailing finite part removed."""
        if self.finite_part:
            return Ordinal(self._terms[:-1])
        return self

    def pred(self) -> "Ordinal":
        """The predecessor of a successor ordinal."""
        if not self.is_successor():
            raise ValueError("only successor ordinals have a predecessor")
        zero_exp, m = self._terms[-1]
        tail = () if m == 1 else ((zero_exp, m - 1),)
        return Ordinal(self._terms[:-1] + tail)

    def is_additively_indecomposable(self) -> bool:
        """0 or a single CNF term w^b with coefficient 1."""
        t = self._terms
        return not t or (len(t) == 1 and t[0][1] == 1)

    # -- comparison ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._terms)
            object.__setattr__(self, "_hash", h)
        return h

    def _sort_key(self):
        """The CNF as nested tuples, exponents by their keys: Python's
        tuple order on keys is the ordinal order.  Kept once computed."""
        k = self._key
        if k is None:
            k = tuple([(e._sort_key(), c) for e, c in self._terms])
            object.__setattr__(self, "_key", k)
        return k

    def __lt__(self, other):
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self._sort_key() < other._sort_key()

    def __le__(self, other):
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self._sort_key() <= other._sort_key()

    def __gt__(self, other):
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self._sort_key() > other._sort_key()

    def __ge__(self, other):
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self._sort_key() >= other._sort_key()

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Ordinal") -> "Ordinal":
        if not isinstance(other, Ordinal):
            return NotImplemented
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        lead = other._terms[0][0]
        kept = [t for t in self._terms if t[0] > lead]
        merged = list(other._terms)
        for exp, coeff in self._terms:
            if exp == lead:
                merged[0] = (lead, merged[0][1] + coeff)
                break
        return Ordinal(tuple(kept) + tuple(merged))

    def __mul__(self, other: "Ordinal") -> "Ordinal":
        """Standard ordinal product: ``other`` copies of ``self``."""
        if not isinstance(other, Ordinal):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return ZERO
        lead_exp, lead_coeff = self._terms[0]
        result = ZERO
        for exp, coeff in other._terms:
            if exp.is_zero():
                # self * n = w^e0*(c0*n) followed by self's tail
                part = Ordinal(((lead_exp, lead_coeff * coeff),) + self._terms[1:])
            else:
                part = Ordinal(((lead_exp + exp, coeff),))
            result = result + part
        return result

    def __pow__(self, other: "Ordinal") -> "Ordinal":
        if not isinstance(other, Ordinal):
            return NotImplemented
        if other.is_zero():
            return ONE
        if self.is_zero():
            return ZERO
        if self == ONE:
            return ONE
        if self.is_finite():
            return _finite_base_pow(self.as_int(), other)
        return _infinite_base_pow(self, other)

    def __sub__(self, other: "Ordinal") -> "Ordinal":
        """Left subtraction: the unique d with other + d == self.

        Requires other <= self.
        """
        if not isinstance(other, Ordinal):
            return NotImplemented
        if other > self:
            raise ValueError("left subtraction requires other <= self")
        for i, (exp, coeff) in enumerate(other._terms):
            if i >= len(self._terms):
                break
            sexp, scoeff = self._terms[i]
            if sexp != exp:
                # self's term is strictly bigger here; it survives whole
                return Ordinal(self._terms[i:])
            if scoeff != coeff:
                if scoeff > coeff:
                    return Ordinal(((sexp, scoeff - coeff),) + self._terms[i + 1 :])
                # scoeff < coeff can only happen when the remainder of
                # self re-dominates, which <= rules out beyond this point
                return Ordinal(self._terms[i:])
        return Ordinal(self._terms[len(other._terms) :])

    # -- presentation -------------------------------------------------

    def __repr__(self):
        return f"Ordinal({self})"

    def __str__(self):
        if not self._terms:
            return "0"
        chunks = []
        for exp, coeff in self._terms:
            if exp.is_zero():
                chunks.append(str(coeff))
                continue
            if exp == ONE:
                base = "w"
            else:
                base = f"w^({exp})"
            if coeff == 1:
                chunks.append(base)
            else:
                chunks.append(f"{base}*{coeff}")
        return " + ".join(chunks)


ZERO = Ordinal()
ONE = Ordinal.from_int(1)
OMEGA = Ordinal(((ONE, 1),))


def _finite_base_pow(n: int, b: Ordinal) -> Ordinal:
    """n**b for 2 <= n < w."""
    if b.is_finite():
        return Ordinal.from_int(n ** b.as_int())
    # For b = w^b1*c1 + ... + w^bk*ck + m with all bi >= 1:
    # n^b = w^(w^(b1-1)*c1 + ... + w^(bk-1)*ck) * n^m, where "b-1" is
    # the predecessor for successor b and b itself for limit b.
    new_terms = []
    m = 0
    for exp, coeff in b.terms:
        if exp.is_zero():
            m = coeff
            continue
        dec = exp.pred() if exp.is_successor() else exp
        new_terms.append((dec, coeff))
    result = Ordinal(((Ordinal(_merge_like(new_terms)), 1),))
    if m:
        result = result * Ordinal.from_int(n**m)
    return result


def _merge_like(pairs):
    """Merge equal adjacent exponents produced by the b-1 shift."""
    out = []
    for exp, coeff in pairs:
        if out and out[-1][0] == exp:
            out[-1] = (exp, out[-1][1] + coeff)
        else:
            out.append((exp, coeff))
    return tuple(out)


def _infinite_base_pow(a: Ordinal, b: Ordinal) -> Ordinal:
    """a**b for infinite a."""
    e0 = a.terms[0][0]
    limit_exp = b.limit_part  # sum of the infinite-exponent part of b
    m = b.finite_part
    result = ONE
    if not limit_exp.is_zero():
        result = Ordinal(((e0 * limit_exp, 1),))
    for _ in range(m):
        result = result * a
    return result


def ord_from_cnf(pairs: Iterable[Tuple[Ordinal, int]]) -> Ordinal:
    """Canonical value of sum(w^e_i * c_i) evaluated left to right.

    Input may be unsorted or contain repeated exponents.
    """
    result = ZERO
    for exp, coeff in pairs:
        if not isinstance(coeff, int) or coeff <= 0:
            raise ValueError("coefficient must be a positive integer")
        result = result + Ordinal(((exp, coeff),))
    return result


def ord_cmp(a: Ordinal, b: Ordinal) -> str:
    """Total order on ordinals: 'LT', 'EQ' or 'GT'."""
    if a == b:
        return "EQ"
    return "LT" if a < b else "GT"


def cofinality(a: Ordinal) -> Ordinal:
    """0 for 0, 1 for successors, w for limits (all limits below
    epsilon_0 have cofinality w)."""
    if a.is_zero():
        return ZERO
    if a.is_successor():
        return ONE
    return OMEGA


def fundamental_sequence(a: Ordinal, n: int) -> Ordinal:
    """The n-th element a[n] of the canonical increasing sequence with
    supremum a.  Defined for limit a only.

    Scheme: strip the trailing CNF term w^g*k and emit
    head + w^g*(k-1) + X where X = w^d*n if g = d+1, else w^(g[n]).
    """
    if not a.is_limit():
        raise ValueError("fundamental_sequence requires a limit ordinal")
    if n < 0:
        raise ValueError("index must be a natural number")
    g, k = a.terms[-1]
    head = Ordinal(a.terms[:-1])
    if k > 1:
        head = head + Ordinal(((g, k - 1),))
    if g.is_successor():
        d = g.pred()
        if n == 0:
            x = ZERO
        else:
            x = Ordinal(((d, n),))
    else:
        x = Ordinal(((fundamental_sequence(g, n), 1),))
    return head + x


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class OrdinalProfile:
    additively_indecomposable: bool
    sum_closed: bool
    strongly_indecomposable: bool
    untranscendable: bool
    product_closed: bool
    s_untranscendable: bool
    delta_number: bool
    multiplicatively_principal: bool
    multiplicatively_indecomposable: bool
    cofinality: Ordinal


def _is_omega_to_omega_power(a: Ordinal) -> bool:
    """a == w^(w^b) for some b (equivalently a = w^e with e = w^b)."""
    if len(a.terms) != 1 or a.terms[0][1] != 1:
        return False
    e = a.terms[0][0]
    return not e.is_zero() and e.is_additively_indecomposable()


def classify_ordinal(a: Ordinal) -> OrdinalProfile:
    """Closed-form classification flags for an ordinal.

    Note: 0 is reported as not a delta-number; the delta-number family
    here is {1} together with the w^(w^b).
    """
    add_indec = a.is_additively_indecomposable()
    small = a.is_finite() and a.as_int() <= 2
    untr = small or _is_omega_to_omega_power(a)
    delta = (a == ONE) or _is_omega_to_omega_power(a)
    mult_principal = small or delta
    mult_indec = (
        mult_principal
        or (a.is_finite() and _is_prime(a.as_int()))
        or _is_power_plus_one(a)
    )
    s_untr = untr and not (a.is_limit() and a != OMEGA)
    return OrdinalProfile(
        additively_indecomposable=add_indec,
        sum_closed=add_indec,
        strongly_indecomposable=add_indec,
        untranscendable=untr,
        product_closed=untr,
        s_untranscendable=s_untr,
        delta_number=delta,
        multiplicatively_principal=mult_principal,
        multiplicatively_indecomposable=mult_indec,
        cofinality=cofinality(a),
    )


def _is_power_plus_one(a: Ordinal) -> bool:
    """a == b + 1 with b = w^g for some g >= 1."""
    t = a.terms
    return (
        len(t) == 2
        and t[1][0].is_zero()
        and t[1][1] == 1
        and t[0][1] == 1
        and not t[0][0].is_zero()
    )


def transcendability_witness(a: Ordinal) -> Optional[Tuple[Ordinal, Ordinal]]:
    """For transcendable a, a pair (psi, tau) with psi, tau < a and
    a <= psi*tau; None when a is untranscendable.

    Construction: write a = w^(w^b*k + g)*n + d.  If
    max(n, g+1, d+1) >= 2 take psi = tau = w^(w^b*k); otherwise k >= 2
    and psi = tau = w^(w^b*(k-1)).  Finite a >= 3 yields (a-1, a-1).
    The result is re-checked with ordinal arithmetic before returning.
    """
    if classify_ordinal(a).untranscendable:
        return None
    if a.is_finite():
        m = a.as_int()  # m >= 3 here
        psi = tau = Ordinal.from_int(m - 1)
    else:
        e, n = a.terms[0]
        d = Ordinal(a.terms[1:])
        b, k = e.terms[0]
        g = Ordinal(e.terms[1:])
        if n >= 2 or not g.is_zero() or not d.is_zero():
            psi = tau = Ordinal(((Ordinal(((b, k),)), 1),))
        else:
            # n == 1, g == d == 0; untranscendability failed so k >= 2
            psi = tau = Ordinal(((Ordinal(((b, k - 1),)), 1),))
    if not (psi < a and tau < a and a <= psi * tau):
        raise AssertionError(f"witness self-verification failed for {a}")
    return (psi, tau)


def s_untranscendability_witness(a: Ordinal):
    """For a not s-untranscendable, a pair (rho: Term, tau: Ordinal)
    with a <= rho*tau while a embeds in neither rho nor tau.

    Construction, writing w^e for the leading power of a:

    - finite a (so a >= 3): rho = tau = a - 1, as for plain
      transcendability;
    - a with more than one summand, or leading coefficient >= 2: rho =
      w^e, tau = w.  Then a <= w^e * w while w^e < a and w < a, so
      neither factor embeds a;
    - a = w^e with e a successor g+1: a = w^g * w, so rho = w^g,
      tau = w give rho*tau = a while both factors are strictly below a;
    - a = w^e with e a limit: no ordinal factorization avoids a, so
      rho is the reverse-w sum of a's fundamental sequence (a Term)
      and tau = w; then a =< rho*w while a embeds in neither factor
      (each block of rho is a proper initial ordinal, and any copy of
      the well-order a inside rho would be confined to finitely many
      blocks whose sum stays below the additively indecomposable a).
    """
    if classify_ordinal(a).s_untranscendable:
        return None
    from . import terms

    if a.is_finite():
        m = a.as_int()  # m >= 3 here
        return terms.OrdLeaf(Ordinal.from_int(m - 1)), Ordinal.from_int(m - 1)
    e = a.terms[0][0]
    if len(a.terms) == 1 and a.terms[0][1] == 1:
        if e.is_limit():
            rho = terms.normalize(terms.SeqSumStar(a))
            return rho, OMEGA
        # a = w^(g+1) = w^g * w
        return terms.OrdLeaf(Ordinal(((e.pred(), 1),))), OMEGA
    # a = w^e*n + d with n >= 2 or d != 0, and a < w^e * w
    return terms.OrdLeaf(Ordinal(((e, 1),))), OMEGA

"""Structural facts about normalized terms.

The facts of a node are computed once, in one step from the facts
stored on its children (``facts``), and are exact for the term language
of this package:

- ``well_ordered`` / ``rev_well_ordered``: no infinite descending
  (resp. ascending) sequence.  An infinite order embeds omega iff it is
  not reverse-well-ordered, and omega* iff it is not well-ordered.
- ``final_segments_wo``: every final segment cut at a point is
  well-ordered (and dually ``initial_segments_rwo``).  These drive the
  "strictly right / strictly left" embedding arguments.
- ``left_end`` / ``right_end``: a least (resp. greatest) point.
- ``scattered``: no densely ordered subset; for this term language that
  is exactly the absence of the dense leaves.
- countable orders are unions of countably many singletons, so
  sigma-scatteredness coincides with countability here, and the
  continuum-sized leaf is the only source of uncountability.

Three ordinal invariants of a scattered term, each None for a term that
is not scattered, and each monotone under embedding (``R-STRUCT``
refutes s <= t when one of s's is above t's):

- ``rank``: the Hausdorff rank, the least alpha at which the alpha-th
  iterated finite condensation (``fprofile``) is finite (Hausdorff 1908;
  Rosenstein, *Linear Orderings*, 1982, ch. 5).  An embedding s -> t
  maps each condensation class of s into one of t, stage by stage, so
  rank(s) <= rank(t).
- ``final_rank``: the least ordinal above the rank of every final
  segment past a point, sup(rank(t_{>x}) + 1); 0 for the empty order.
  An embedding f maps s_{>x} into t_{>f(x)}, so it is monotone too.
- ``initial_rank``: the same for the initial segments before a point.

The formulas, with the reason for each; a normal form's parts and
factors are nonempty, a product's index is infinite and the base of a
geometric sum is infinite, so its rank rho is at least 1:

- an ordinal alpha = w^e*c + ...: rank e, as its e-th condensation is
  the c or c + 1 classes of its CNF's leading term and what follows it.
  A final segment is alpha's tail, of rank e at the first point, so the
  final rank is e + 1 (and 0 for 0).  The initial segments are the
  ordinals below alpha: their ranks reach e, unless alpha = w^e with
  e >= 1, where they are cofinal in e (e a limit) or reach e - 1; so the
  initial rank is e there and e + 1 otherwise.
- a reversed w^e: rank e, and the two segment ranks of w^e swapped.
- z: rank 1 (one class), and each segment is w or w*, of rank 1: 2, 2.
- a sum a_1 + ... + a_n: the condensation of a sum is a quotient of the
  sum of the parts' condensations, so the rank is the max of the parts'.
  A final segment is a final segment of one part a_i followed by the
  whole parts after it: the final rank is the max of a_1's and of
  rank(a_j) + 1 for j >= 2, and dually for the initial rank.
- a product a*b (b copies of a): at stage rank(a) each copy is finite,
  and the copies' classes then condense as b does, so the rank is
  rank(a) + rank(b).  A final segment past (x, y) is a's segment past x
  and then a*(b_{>y}), of rank rank(a) + rank(b_{>y}) when b_{>y} is
  nonempty and at most rank(a) otherwise; as b has a second point and
  ordinal addition is continuous on the right, the final rank is
  rank(a) + final_rank(b), and the initial rank rank(a) +
  initial_rank(b).
- geom(b) and geomrev(b), blocks b^n of rank rho*n: the blocks' ranks
  are cofinal in rho*w, and any two points lie in finitely many blocks,
  all condensed to finitely many classes before stage rho*w, so the rank
  is rho*w.  Every segment that holds infinitely many blocks has rank
  rho*w, and every other one a rank below it: so geom has final rank
  rho*w + 1 and initial rank rho*w, and geomrev the mirror.
- revsum(a), the blocks a[n] of the fundamental sequence of the limit
  a summed along w*, with E the leading exponent of a: a final segment
  meets finitely many blocks and is an ordinal of rank at most that of
  its first block.  When a is no pure power every block has rank E, so
  the final rank is E + 1; when a = w^E the blocks' ranks are E - 1 (E a
  successor) or cofinal in E (E a limit), so it is E.  Call it r.  The
  rank is r too: the blocks are finite by stage r - 1, or by the stages
  below a limit r, and w*-many finite blocks condense to one class at
  the next stage; and it is no less, as for a limit r the blocks' ranks
  are cofinal in it, and otherwise w*-many blocks of rank r - 1 leave
  infinitely many classes at stage r - 1.  Every initial segment holds
  a tail of the sum, of rank r, so the initial rank is r + 1.
  ``revsum(a)~`` mirrors it.

Two more ordinal invariants of a scattered term, also None for a term
that is not scattered.  The ordinals that embed in t form an initial
segment W(t) of the ordinals, as a suborder of an ordinal is of no
greater type, so each is its least ordinal not in the segment:

- ``ordinal_bound``: the least ordinal that does not embed in t;
- ``rev_ordinal_bound``: the least alpha whose reverse does not embed in
  t, that is the ``ordinal_bound`` of t reversed.

An embedding s -> t carries W(s) into W(t), so both are monotone under
embedding (``R-STRUCT``), and alpha <= t exactly when alpha is below
t's ``ordinal_bound`` (``R-ORD``; ``R-CO-ORD`` for a reversed alpha).
The rules that give them, each read off how a copy of an ordinal alpha
meets the parts of t:

- a + b: W(a + b) = {beta + gamma : beta in W(a), gamma in W(b)}, as
  the points of alpha in a form an initial segment beta of alpha.
- a*b: W(a*b) = {sum_{i<delta} alpha_i : delta in W(b), 0 < alpha_i in
  W(a)}: the copies alpha meets are a suborder delta of b, and alpha
  meets each in a nonzero alpha_i.
- geom(b), the blocks b^n ascending: an w-sum with one ordinal per
  block, W = {sum_n alpha_n : alpha_n in W(b^n)}.
- geomrev(b) and revsum(a), blocks along w*: a well-ordered set of
  blocks in w* is finite, so alpha meets finitely many blocks.
- the leaves: alpha + 1 for an ordinal alpha, whose reversed suborders
  are finite (a bound w when alpha is infinite, alpha + 1 when not);
  w^e~ holds only finite ordinals, bound w, and the reverses of the
  ordinals up to w^e, bound w^e + 1; z holds w and w~ but not w + 1 or
  its reverse, bound w + 1 both ways.

Reversal maps a + b to b~ + a~, a*b to a~*b~, geom(b) to geomrev(b~) and
revsum(a) to revsum(a)~, so each ``rev_ordinal_bound`` is the
``ordinal_bound`` formula on the children's reversed bounds (and the
parts of a sum in reverse order).  The formulas, with X, C >= 2 the
bounds of a term's children (a nonempty order holds 0 and 1).  Write a
nonzero ordinal as X = d + w^e, where w^e is the last term of its CNF
taken once:

- a sum: the bound of a + b is d + max(w^e, C), for X = d + w^e the
  bound of a and C that of b.  For beta < X, beta + gamma ranges over
  the ordinals below beta + C, so the bound is sup_{beta<X}(beta + C).
  For beta = d + eta with eta < w^e: when C >= w^e, eta + C = C, so
  every beta >= d gives d + C, and no beta gives more; when C < w^e,
  eta + C < w^e, so every beta + C is below X and the bound is X.  Sums
  of more parts fold from the left.
- a product a*b, X the bound of a (X = d + w^e) and C = w*L + m that of
  b (m finite): let G = max(d*w, X), the greatest w-sum of nonzero
  ordinals below X (w copies of d; for d = 0, X = w^e and the sums stay
  below it but reach it).  As W(a*b) is downward closed, only the
  greatest sums count.  A sum of n >= 1 ordinals below X stays below
  J(n) = d*(n-1) + X, and some such sum is at least any given ordinal
  below J(n) (by the sum rule, n times; d's leading term absorbs what
  follows the first d).  Cut delta = w*l + n into l blocks of w and n
  ordinals: the sums over delta are at most G*l, and reach it, when n =
  0, and otherwise stay below G*l + J(n) and come up to each ordinal
  below it.  With delta < C, and J(n) rising to G, the
  bound is G*L when m = 0, G*L + 1 when m = 1, and G*L + J(m - 1) when
  m >= 2.  A sum over delta of ordinals below X is at most X*delta, so
  the bound is at most X*C.
- geom(b), X the bound of b: let P be the sup of the bounds P_n of the
  blocks b^n (b^(n+1) = b^n*b).  For X = w (b infinite and free of w)
  every block holds only finite ordinals, and P = w.  For X > w, P =
  X^w = w^(lead(X)*w), where lead is the leading exponent: P_n <= X^n by
  the last remark; and, with X = w*L + m (L >= 1), P_(n+1) >=
  G(P_n)*L, where G(P_n) = w^(g_n) with g_n >= lead(P_n).  When lead(X)
  >= 2, lead(L) >= 1 and 1 + lead(L) = lead(X), so the leading exponent
  grows by lead(L) a power and reaches lead(L)*w = lead(X)*w.  When
  lead(X) = 1, P_(n+1) is G(P_n)*L plus 0, 1 or J, no power of w (L >=
  2 when m = 0), so g_(n+1) = lead(P_(n+1)) + 1 >= g_n + 1.  So the P_n
  rise strictly to the power of w P, and a sum of ordinals below them
  stays below P at each finite stage: the w-sums are at most P and,
  with the alpha_n cofinal in P (for X = w, all 1), reach it.  The bound
  is P + 1.
- geomrev(b): alpha is a finite sum of ordinals each below some P_n;
  finite sums of ordinals below the power of w P stay below it, and each
  P_n is reached, so the bound is P (w for X = w, X^w for X > w).
- revsum(a), a = h + w^g: the blocks are a[n] = h + x_n with x_n < w^g
  rising to w^g (the canonical fundamental sequence), so a copy of
  alpha in N + 1 blocks is at most a[N] + ... + a[0] = h*(N + 1) + x_0
  when h > 0, as x_n + h = h; the bound is the sup, h*w.  When h = 0
  the sums stay below a and the blocks reach it: the bound is a.  Both
  are G(a) of the product rule.  Its reversed bound is w + 1: the
  reversed blocks hold finite ordinals only, and their w-sum reaches w.
"""

from __future__ import annotations

from math import inf
from typing import NamedTuple, Optional

from .ordinals import OMEGA, ONE, ZERO, Ordinal, fundamental_sequence
from .terms import (
    Eta,
    GeomOmega,
    GeomOmegaStar,
    Lambda,
    OrdLeaf,
    Prod,
    RevOrd,
    SeqSumRev,
    SeqSumStar,
    Sum,
    Term,
    Zeta,
    set_derived,
    total_count,
)


class Facts(NamedTuple):
    nonempty: bool
    size: Optional[int]  # None when infinite
    countable: bool
    scattered: bool
    left_end: bool
    right_end: bool
    well_ordered: bool
    rev_well_ordered: bool
    final_segments_wo: bool
    initial_segments_rwo: bool
    # the ordinal invariants: None for a term that is not scattered
    rank: Optional[Ordinal]
    final_rank: Optional[Ordinal]
    initial_rank: Optional[Ordinal]
    ordinal_bound: Optional[Ordinal]
    rev_ordinal_bound: Optional[Ordinal]

    @property
    def embeds_omega(self) -> bool:
        return not self.rev_well_ordered

    @property
    def embeds_omega_star(self) -> bool:
        return not self.well_ordered

    @property
    def sigma_scattered(self) -> bool:
        return self.countable

    @property
    def cardinality(self) -> str:
        if self.size is not None:
            return f"finite:{self.size}"
        return "countably-infinite" if self.countable else "continuum"


def facts(t: Term) -> Facts:
    """The structural facts of a normalized term, kept on the node."""
    f = t._facts
    if f is None:
        f = _facts(t)
        set_derived(t, "_facts", f)
    return f


def _facts(t: Term) -> Facts:
    """One step of the facts, on the stored facts of t's children."""
    n = total_count(t)
    order = _order_facts(t)
    ordinals = (*_ranks(t), *_bounds(t)) if order[1] else (None,) * 5
    return Facts(n != 0, None if n == inf else int(n), *order, *ordinals)


def _order_facts(t: Term):
    """The fields of ``Facts`` after ``size``, in order: countable,
    scattered, left_end, right_end, well_ordered, rev_well_ordered,
    final_segments_wo, initial_segments_rwo."""
    if isinstance(t, Sum):
        fs = [facts(p) for p in t.parts]
        first, last = fs[0], fs[-1]
        return (
            all(f.countable for f in fs),
            all(f.scattered for f in fs),
            first.left_end,
            last.right_end,
            all(f.well_ordered for f in fs),
            all(f.rev_well_ordered for f in fs),
            first.final_segments_wo and all(f.well_ordered for f in fs[1:]),
            last.initial_segments_rwo
            and all(f.rev_well_ordered for f in fs[:-1]),
        )
    if isinstance(t, Prod):
        # copies of the inner order along the index; an end point is the
        # inner end point in the index end point's copy
        a, b = facts(t.inner), facts(t.index)
        return (
            a.countable and b.countable,
            a.scattered and b.scattered,
            a.left_end and b.left_end,
            a.right_end and b.right_end,
            a.well_ordered and b.well_ordered,
            a.rev_well_ordered and b.rev_well_ordered,
            a.final_segments_wo and a.well_ordered and b.final_segments_wo,
            a.initial_segments_rwo and a.rev_well_ordered
            and b.initial_segments_rwo,
        )
    if isinstance(t, (GeomOmega, GeomOmegaStar)):
        # the blocks are the powers base^n, n >= start: geom's leftmost
        # block is base^start and it has no rightmost, geomrev mirrors it,
        # and base^n has an end on a side when n = 0 or the base has one
        b = facts(t.base)
        up = isinstance(t, GeomOmega)
        return (
            b.countable,
            b.scattered,
            up and (t.start == 0 or b.left_end),
            not up and (t.start == 0 or b.right_end),
            up and b.well_ordered,
            not up and b.rev_well_ordered,
            b.well_ordered and b.final_segments_wo,
            b.rev_well_ordered and b.initial_segments_rwo,
        )
    if isinstance(t, OrdLeaf):
        # initial segments are the smaller ordinals, reverse-well-ordered
        # exactly when the cut point is finite
        v = t.value
        nonzero = not v.is_zero()
        return (True, True, nonzero, nonzero and v.is_successor(), True,
                v.is_finite(), True, v <= OMEGA)
    if isinstance(t, RevOrd):
        # points are ordinals below the power; the final segment at p is
        # the reversed initial segment, finite exactly when p is finite
        return (True, True, False, True, False, True, t.power == OMEGA, True)
    if isinstance(t, Zeta):
        return (True, True, False, False, False, False, True, True)
    if isinstance(t, (Eta, Lambda)):
        return (isinstance(t, Eta), False, False, False, False, False, False,
                False)
    if isinstance(t, (SeqSumStar, SeqSumRev)):
        # w*-many ordinal blocks, the first one rightmost (its reverse for
        # SeqSumRev): a final segment meets finitely many ordinal blocks,
        # and the end on the first block's side is that block's greatest
        # ordinal, if it has one
        star = isinstance(t, SeqSumStar)
        end = _first_block_has_greatest(t.limit)
        return (True, True, not star and end, star and end, False, False,
                star, not star)
    raise TypeError(f"unexpected term {t!r}")


def _lead(a: Ordinal) -> Ordinal:
    """The leading exponent of a nonzero ordinal."""
    return a.terms[0][0]


def _ordinal_ranks(a: Ordinal):
    """(rank, final_rank, initial_rank) of the ordinal a."""
    if a.is_zero():
        return ZERO, ZERO, ZERO
    e = _lead(a)
    above = e + ONE
    power = a.is_additively_indecomposable() and not a.is_finite()
    return e, above, e if power else above


def _ranks(t: Term):
    """(rank, final_rank, initial_rank) of the scattered normal form t,
    one step from its children's facts (see the module docstring)."""
    if isinstance(t, OrdLeaf):
        return _ordinal_ranks(t.value)
    if isinstance(t, RevOrd):
        rank, final, initial = _ordinal_ranks(t.power)
        return rank, initial, final
    if isinstance(t, Zeta):
        two = Ordinal.from_int(2)
        return ONE, two, two
    if isinstance(t, Sum):
        fs = [facts(p) for p in t.parts]
        after = max(f.rank for f in fs[1:]) + ONE
        before = max(f.rank for f in fs[:-1]) + ONE
        return (max(f.rank for f in fs), max(fs[0].final_rank, after),
                max(fs[-1].initial_rank, before))
    if isinstance(t, Prod):
        a, b = facts(t.inner), facts(t.index)
        return (a.rank + b.rank, a.rank + b.final_rank,
                a.rank + b.initial_rank)
    if isinstance(t, (GeomOmega, GeomOmegaStar)):
        r = facts(t.base).rank * OMEGA
        if isinstance(t, GeomOmega):
            return r, r + ONE, r
        return r, r, r + ONE
    if isinstance(t, (SeqSumStar, SeqSumRev)):
        a = t.limit
        r = _lead(a)
        if not a.is_additively_indecomposable():
            r = r + ONE
        if isinstance(t, SeqSumStar):
            return r, r, r + ONE
        return r, r + ONE, r
    raise TypeError(f"unexpected term {t!r}")


_OMEGA_1 = OMEGA + ONE


def _split_last(x: Ordinal):
    """(d, w^e) with x = d + w^e, w^e the last term of x's CNF taken once."""
    *head, (e, c) = x.terms
    if c > 1:
        head.append((e, c - 1))
    return Ordinal(tuple(head)), Ordinal(((e, 1),))


def _sum_bound(x: Ordinal, c: Ordinal) -> Ordinal:
    """The ordinal bound of a + b, for x the bound of a and c that of b."""
    d, last = _split_last(x)
    return d + max(last, c)


def _omega_sum(x: Ordinal) -> Ordinal:
    """G(x): the greatest w-sum of nonzero ordinals below x >= 2."""
    d, _ = _split_last(x)
    return max(d * OMEGA, x)


def _product_bound(x: Ordinal, c: Ordinal) -> Ordinal:
    """The ordinal bound of a*b, for x the bound of a and c that of b."""
    d, _ = _split_last(x)
    m = c.finite_part
    # c = w*L + m: L's exponents are c's, each less the leading 1
    top = _omega_sum(x) * Ordinal(tuple((e - ONE, k)
                                        for e, k in c.limit_part.terms))
    if m <= 1:
        return top + Ordinal.from_int(m)
    return top + d * Ordinal.from_int(m - 2) + x


def _powers_bound(x: Ordinal) -> Ordinal:
    """P: the sup of the ordinal bounds of the powers of an infinite
    order whose bound is x."""
    return OMEGA if x <= OMEGA else x ** OMEGA


def _bounds(t: Term):
    """(ordinal_bound, rev_ordinal_bound) of the scattered normal form t,
    one step from its children's facts (see the module docstring)."""
    if isinstance(t, OrdLeaf):
        up = t.value + ONE
        return up, up if t.value.is_finite() else OMEGA
    if isinstance(t, RevOrd):
        return OMEGA, t.power + ONE
    if isinstance(t, Zeta):
        return _OMEGA_1, _OMEGA_1
    if isinstance(t, Sum):
        fs = [facts(p) for p in t.parts]
        up = fs[0].ordinal_bound
        for f in fs[1:]:
            up = _sum_bound(up, f.ordinal_bound)
        down = fs[-1].rev_ordinal_bound
        for f in reversed(fs[:-1]):
            down = _sum_bound(down, f.rev_ordinal_bound)
        return up, down
    if isinstance(t, Prod):
        a, b = facts(t.inner), facts(t.index)
        return (_product_bound(a.ordinal_bound, b.ordinal_bound),
                _product_bound(a.rev_ordinal_bound, b.rev_ordinal_bound))
    if isinstance(t, (GeomOmega, GeomOmegaStar)):
        b = facts(t.base)
        up = _powers_bound(b.ordinal_bound)
        down = _powers_bound(b.rev_ordinal_bound)
        if isinstance(t, GeomOmega):
            return up + ONE, down
        return up, down + ONE
    if isinstance(t, (SeqSumStar, SeqSumRev)):
        g = _omega_sum(t.limit)
        if isinstance(t, SeqSumStar):
            return g, _OMEGA_1
        return _OMEGA_1, g
    raise TypeError(f"unexpected term {t!r}")


def _first_block_has_greatest(limit: Ordinal) -> bool:
    """Whether the first nonzero block among the first two of the
    fundamental sequence of ``limit`` has a greatest element."""
    for n in range(2):
        blk = fundamental_sequence(limit, n)
        if not blk.is_zero():
            return blk.is_successor()
    return False


def structural_summary(t: Term) -> dict:
    f = facts(t)
    return {
        "nonempty": f.nonempty,
        "cardinality": f.cardinality,
        "countable": f.countable,
        "scattered": f.scattered,
        "sigma_scattered": f.sigma_scattered,
        "left_endpoint": f.left_end,
        "right_endpoint": f.right_end,
        "well_ordered": f.well_ordered,
        "rev_well_ordered": f.rev_well_ordered,
        "embeds_omega": f.embeds_omega,
        "embeds_omega_star": f.embeds_omega_star,
        "final_segments_wo": f.final_segments_wo,
        "initial_segments_rwo": f.initial_segments_rwo,
    }

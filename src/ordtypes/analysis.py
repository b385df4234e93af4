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
    ranks = _ranks(t) if order[1] else (None, None, None)
    return Facts(n != 0, None if n == inf else int(n), *order, *ranks)


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

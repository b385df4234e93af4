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
"""

from __future__ import annotations

from math import inf
from typing import NamedTuple, Optional

from .ordinals import OMEGA, Ordinal, fundamental_sequence
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
    return Facts(n != 0, None if n == inf else int(n), *_order_facts(t))


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

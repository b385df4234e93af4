"""Structural facts about normalized terms.

Each fact is computed by a recursion over the term tree and is exact
for the term language of this package:

- ``well_ordered`` / ``rev_well_ordered``: no infinite descending
  (resp. ascending) sequence.  An infinite order embeds omega iff it is
  not reverse-well-ordered, and omega* iff it is not well-ordered.
- ``final_segments_wo``: every final segment cut at a point is
  well-ordered (and dually ``initial_segments_rwo``).  These drive the
  "strictly right / strictly left" embedding arguments.
- ``scattered``: no densely ordered subset; for this term language that
  is exactly the absence of the dense leaves.
- countable orders are unions of countably many singletons, so
  sigma-scatteredness coincides with countability here, and the
  continuum-sized leaf is the only source of uncountability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .ordinals import OMEGA, Ordinal
from .points import first_point, last_point, total_count
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
)


@dataclass(frozen=True)
class Facts:
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


def _wo(t: Term) -> bool:
    if isinstance(t, OrdLeaf):
        return True
    if isinstance(t, (RevOrd, Zeta, Eta, Lambda)):
        return False
    if isinstance(t, Sum):
        return all(_wo(p) for p in t.parts)
    if isinstance(t, Prod):
        return _wo(t.inner) and _wo(t.index)
    if isinstance(t, GeomOmega):
        return _wo(t.base)
    # the remaining nodes all have infinitely many nonempty blocks
    # arranged so that a descending sequence can be picked across them
    return False


def _rwo(t: Term) -> bool:
    if isinstance(t, OrdLeaf):
        return t.value.is_finite()
    if isinstance(t, RevOrd):
        return True
    if isinstance(t, (Zeta, Eta, Lambda)):
        return False
    if isinstance(t, Sum):
        return all(_rwo(p) for p in t.parts)
    if isinstance(t, Prod):
        return _rwo(t.inner) and _rwo(t.index)
    if isinstance(t, GeomOmegaStar):
        return _rwo(t.base)
    return False


def _fsw(t: Term) -> bool:
    """Every final segment cut at a point is well-ordered."""
    if isinstance(t, OrdLeaf):
        return True
    if isinstance(t, RevOrd):
        # points are ordinals below the power; the final segment at p is
        # the reversed initial segment, finite exactly when p is finite
        return t.power == OMEGA
    if isinstance(t, Zeta):
        return True
    if isinstance(t, (Eta, Lambda)):
        return False
    if isinstance(t, Sum):
        return _fsw(t.parts[0]) and all(_wo(p) for p in t.parts[1:])
    if isinstance(t, Prod):
        return _fsw(t.inner) and _wo(t.inner) and _fsw(t.index)
    if isinstance(t, (GeomOmega, GeomOmegaStar)):
        return _wo(t.base) and _fsw(t.base)
    if isinstance(t, SeqSumStar):
        return True  # a final segment meets only finitely many ordinal blocks
    if isinstance(t, SeqSumRev):
        return False
    raise TypeError(f"unexpected term {t!r}")


def _isw(t: Term) -> bool:
    """Every initial segment cut at a point is reverse-well-ordered."""
    if isinstance(t, OrdLeaf):
        # initial segments are the smaller ordinals, reverse-well-ordered
        # exactly when the cut point is finite
        return t.value <= OMEGA
    if isinstance(t, (RevOrd, Zeta)):
        return True
    if isinstance(t, (Eta, Lambda)):
        return False
    if isinstance(t, Sum):
        return _isw(t.parts[-1]) and all(_rwo(p) for p in t.parts[:-1])
    if isinstance(t, Prod):
        return _isw(t.inner) and _rwo(t.inner) and _isw(t.index)
    if isinstance(t, (GeomOmega, GeomOmegaStar)):
        return _rwo(t.base) and _isw(t.base)
    if isinstance(t, SeqSumStar):
        return False
    if isinstance(t, SeqSumRev):
        return True
    raise TypeError(f"unexpected term {t!r}")


def _leaf_free(t: Term, kinds) -> bool:
    if isinstance(t, kinds):
        return False
    if isinstance(t, Sum):
        return all(_leaf_free(p, kinds) for p in t.parts)
    if isinstance(t, Prod):
        return _leaf_free(t.inner, kinds) and _leaf_free(t.index, kinds)
    if isinstance(t, (GeomOmega, GeomOmegaStar)):
        return _leaf_free(t.base, kinds)
    return True


def facts(t: Term) -> Facts:
    """The structural facts of a normalized term, kept on the node."""
    f = t._facts
    if f is None:
        f = _facts(t)
        set_derived(t, "_facts", f)
    return f


def _facts(t: Term) -> Facts:
    n = total_count(t)
    return Facts(
        nonempty=n != 0,
        size=None if n == float("inf") else int(n),
        countable=_leaf_free(t, Lambda),
        scattered=_leaf_free(t, (Eta, Lambda)),
        left_end=first_point(t) is not None,
        right_end=last_point(t) is not None,
        well_ordered=_wo(t),
        rev_well_ordered=_rwo(t),
        final_segments_wo=_fsw(t),
        initial_segments_rwo=_isw(t),
    )


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

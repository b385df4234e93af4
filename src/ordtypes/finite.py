"""Brute-force ground truth on explicit finite chains.

A finite chain is determined up to isomorphism by its size, so a
FiniteOrder is just a size; elements are 0..size-1 in natural order.
Everything here is decided by exhaustive enumeration and therefore
capped to keep runtimes in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterator, Optional, Tuple

from .ordinals import CapacityError

EMBED_CAP = 12
PARTITION_CAP = 16


@dataclass(frozen=True)
class FiniteOrder:
    size: int

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("size must be a natural number")


@dataclass(frozen=True)
class FiniteProfile:
    decomposable: bool
    split_witness: Optional[Tuple[int, int]]
    transcendable: bool
    transcend_witness: Optional[Tuple[int, int]]
    strongly_indecomposable: bool
    partition_witness: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]


def count_embeddings(x: FiniteOrder, y: FiniteOrder) -> int:
    """Number of order-preserving injections of x into y: C(|y|, |x|)."""
    return comb(y.size, x.size) if x.size <= y.size else 0


def iter_embeddings(x: FiniteOrder, y: FiniteOrder) -> Iterator[Tuple[int, ...]]:
    """All embeddings of x into y as increasing index tuples."""
    return combinations(range(y.size), x.size)


def _embeds_in_subset(n: int, subset: Tuple[int, ...]) -> bool:
    """Does the n-chain embed in the given subset of a chain?  A chain
    embeds in any set of >= n points."""
    return len(subset) >= n


def finite_profile(x: FiniteOrder) -> FiniteProfile:
    """Exhaustively computed decomposability / transcendability /
    strong-indecomposability profile of a finite chain."""
    n = x.size
    if n > max(EMBED_CAP, PARTITION_CAP):
        raise CapacityError(f"size {n} exceeds caps")

    # decomposable: some split n = i + (n-i) with both parts nonzero
    # fails to embed the whole on both sides, i.e. n embeds in neither
    # part -- for chains that is simply n >= 2 (both parts are shorter).
    split_witness = None
    decomposable = False
    for i in range(1, n):
        if n > i and n > n - i:
            decomposable = True
            split_witness = (i, n - i)
            break

    # transcendable: suborder types of an n-chain are exactly the sizes
    # <= n, so search pairs (p, q) with p, q < n and n <= p*q.
    transcend_witness = None
    transcendable = False
    if n <= EMBED_CAP:
        for p in range(1, n):
            for q in range(p, n):
                if p * q >= n:
                    transcendable = True
                    transcend_witness = (p, q)
                    break
            if transcendable:
                break
    else:
        raise CapacityError(f"size {n} exceeds embedding cap {EMBED_CAP}")

    # strongly indecomposable: every 2-partition (not necessarily
    # convex) has a part embedding the whole chain.
    strongly = True
    partition_witness = None
    if n <= PARTITION_CAP:
        for bits in range(2**n):
            a = tuple(i for i in range(n) if bits >> i & 1)
            b = tuple(i for i in range(n) if not bits >> i & 1)
            if not _embeds_in_subset(n, a) and not _embeds_in_subset(n, b):
                strongly = False
                partition_witness = (a, b)
                break
    else:
        raise CapacityError(f"size {n} exceeds partition cap {PARTITION_CAP}")

    profile = FiniteProfile(
        decomposable=decomposable,
        split_witness=split_witness,
        transcendable=transcendable,
        transcend_witness=transcend_witness,
        strongly_indecomposable=strongly,
        partition_witness=partition_witness,
    )
    _reverify(x, profile)
    return profile


def _reverify(x: FiniteOrder, p: FiniteProfile) -> None:
    """Witnesses must re-check by direct computation."""
    n = x.size
    if p.split_witness is not None:
        i, j = p.split_witness
        assert i + j == n and i >= 1 and j >= 1 and n > i and n > j
    if p.transcend_witness is not None:
        a, b = p.transcend_witness
        assert a < n and b < n and a * b >= n
    if p.partition_witness is not None:
        a, b = p.partition_witness
        assert len(a) + len(b) == n and len(a) < n and len(b) < n

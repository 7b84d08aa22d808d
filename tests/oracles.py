"""Reference engines, kept as test oracles.

The Leptin searches: these are the direct loops that `hypergroups.leptin`
replaced.  The greedy search re-derives each candidate's ratio with
:func:`leptin_ratio`, and the exhaustive search calls it on every subset in
``combinations`` order.  The tests compare the library's engines with them
certificate by certificate.

Product tables: :func:`kronecker_table` builds the character table of a
direct product value by value, as the Kronecker product of the factors'
tables, so the class functions that the library contracts from the factor
tables can be checked against one table of the whole group.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from operator import mul
from typing import Any

from hypergroups import CharacterTable
from hypergroups.core import (
    CapacityError,
    Hypergroup,
    InternalInvariantError,
    Label,
    UsageError,
    count,
    support_product,
)
from hypergroups.leptin import LeptinCertificate, _epsilon, leptin_ratio


def leptin_search_greedy_loops(
    H: Hypergroup, K: Collection[Label], epsilon: Any, max_size: int = 64
) -> LeptinCertificate | None:
    """leptin_search_greedy by recomputing every candidate ratio from scratch."""
    eps = _epsilon(epsilon)
    count(max_size, "max_size")
    if not K:
        raise UsageError("K must be nonempty")
    bound = 1 + eps
    V: set[Label] = {H.identity}
    while True:
        ratio = leptin_ratio(H, K, V)
        if ratio < bound:
            cert = LeptinCertificate(
                strategy="greedy", K=frozenset(K), V=frozenset(V),
                ratio=ratio, epsilon=eps, hypergroup=H)
            if not cert.verify():
                raise InternalInvariantError("greedy certificate failed self-verification")
            return cert
        if len(V) >= max_size:
            return None
        # K*V | V*V, as one product: (K | V)*V
        pool = sorted(support_product(H, V.union(K), V) - V)
        if not pool:
            return None
        best = min(pool, key=lambda c: (leptin_ratio(H, K, V | {c}), c))
        V.add(best)


def leptin_search_exhaustive_loops(
    H: Hypergroup, K: Collection[Label], epsilon: Any, max_universe: int = 20
) -> LeptinCertificate:
    """leptin_search_exhaustive by calling leptin_ratio on every nonempty subset."""
    eps = _epsilon(epsilon)
    count(max_universe, "max_universe")
    if not K:
        raise UsageError("K must be nonempty")
    universe = H.universe
    if universe is None:
        raise CapacityError(f"{H.name} has no finite universe to enumerate")
    if len(universe) > max_universe:
        raise CapacityError(
            f"universe of size {len(universe)} exceeds the cap {max_universe}")

    best_ratio: Fraction | None = None
    best_v: tuple[Label, ...] | None = None
    for size in range(1, len(universe) + 1):
        for subset in combinations(sorted(universe), size):
            ratio = leptin_ratio(H, K, subset)
            if best_ratio is None or ratio < best_ratio:
                best_ratio = ratio
                best_v = subset
    assert best_ratio is not None and best_v is not None
    if not best_ratio < 1 + eps:
        raise InternalInvariantError(
            f"exhaustive minimum {best_ratio} does not meet 1 + epsilon = {1 + eps}")
    cert = LeptinCertificate(
        strategy="exhaustive", K=frozenset(K), V=frozenset(best_v),
        ratio=best_ratio, epsilon=eps, hypergroup=H)
    if not cert.verify():
        raise InternalInvariantError("exhaustive certificate failed self-verification")
    return cert


def kronecker_table(*tables: CharacterTable) -> CharacterTable:
    """The character table of the direct product of the tables' groups.

    Row (a, b, ..) holds chi_a(c) chi_b(d) .. at class (c, d, ..), each a
    product of ExactComplex values; rows and classes run row-major over the
    factors.  The constructor validates the result like any table.
    """
    rows = []
    for irreps in product(*(t.irreps for t in tables)):
        values = [reduce(mul, parts) for parts in product(*(r.values for r in irreps))]
        rows.append((math.prod(r.dim for r in irreps), values, "*".join(r.name for r in irreps)))
    sizes = [math.prod(parts) for parts in product(*(t.class_sizes for t in tables))]
    return CharacterTable(math.prod(t.group_order for t in tables), sizes, rows,
                          name="x".join(t.name for t in tables))

"""Leptin ratios h(K*V)/h(V) and searches for witnessing sets.

A certificate pins down a finite set V whose weighted growth under
convolution with K stays below 1 + epsilon.  Ratios are exact rationals;
every certificate can re-verify itself from scratch against its hypergroup.

Three search engines:

* interval -- closed-form scan for the dual of SU(2), where K and V are
  spin intervals and the ratio is a quotient of square-pyramidal numbers;
* greedy -- grows V from the identity, each step adding the candidate that
  minimizes the resulting ratio (ties broken by label order);
* exhaustive -- exact minimum over all nonempty subsets of a small finite
  universe, used as ground truth for the greedy engine.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product as iter_product
from typing import Any

from . import su2num
from .core import (
    CapacityError,
    Hypergroup,
    InternalInvariantError,
    Label,
    UsageError,
    count,
    exact,
    support_product,
)
from .duals import ProductDual, Su2Dual, product_dual, su2_dual


def _epsilon(value: Any) -> Fraction:
    eps = exact(value, "epsilon")
    if eps <= 0:
        raise UsageError(f"epsilon must be positive, got {eps}")
    return eps


def twice_spin(value: Any) -> int:
    """Exact half-integer -> its doubled integer encoding; a float is refused."""
    doubled = exact(value, "spin") * 2
    if doubled.denominator != 1 or doubled < 0:
        raise UsageError(f"expected a nonnegative half-integer, got {value}")
    return int(doubled)


def _as_interval(labels: Collection[int]) -> int | None:
    """Largest label when the collection is exactly {0, 1, ..., n}, else None."""
    if isinstance(labels, range):
        if labels.start == 0 and labels.step == 1 and len(labels) > 0:
            return labels.stop - 1
        return None
    if not labels or not all(isinstance(x, int) and not isinstance(x, bool) for x in labels):
        return None
    top = max(labels)
    if len(labels) == top + 1 and set(labels) == set(range(top + 1)):
        return top
    return None


def _label_to_json(x: Label) -> Any:
    if isinstance(x, tuple):
        return [_label_to_json(p) for p in x]
    return x


def _label_from_json(x: Any) -> Label:
    if isinstance(x, list):
        return tuple(_label_from_json(p) for p in x)
    return x


@dataclass
class LeptinCertificate:
    """A witnessing set V for K at tolerance epsilon, with its exact ratio."""

    strategy: str  # interval | greedy | exhaustive | product
    K: Collection[Label]
    V: Collection[Label]
    ratio: Fraction
    epsilon: Fraction
    hypergroup: Hypergroup = field(repr=False)
    factors: tuple["LeptinCertificate", ...] | None = field(default=None, repr=False)
    verified: bool = False

    def recompute_ratio(self) -> Fraction:
        """Re-derive the ratio from the hypergroup, by the strategy's engine."""
        if self.strategy == "interval" and isinstance(self.hypergroup, Su2Dual):
            k2 = _as_interval(self.K)
            m2 = _as_interval(self.V)
            if k2 is not None and m2 is not None:
                return su2num.interval_ratio_n2(k2, m2)
        if self.strategy == "product" and self.factors:
            result = Fraction(1)
            for cert in self.factors:
                result *= cert.recompute_ratio()
            return result
        return leptin_ratio(self.hypergroup, self.K, self.V)

    def verify(self) -> bool:
        recomputed = self.recompute_ratio()
        ok = recomputed == self.ratio and self.ratio < 1 + self.epsilon
        self.verified = ok
        return ok

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "strategy": self.strategy,
            "hypergroup": self.hypergroup.name,
            "K": [_label_to_json(x) for x in sorted(self.K)],
            "V": [_label_to_json(x) for x in sorted(self.V)],
            "ratio": f"{self.ratio.numerator}/{self.ratio.denominator}",
            "epsilon": f"{self.epsilon.numerator}/{self.epsilon.denominator}",
            "verified": self.verified,
        }


def certificate_from_json_dict(data: dict[str, Any], H: Hypergroup) -> LeptinCertificate:
    """Rebuild a certificate emitted by :meth:`LeptinCertificate.to_json_dict`.

    K and V must be lists, and the strategy, ratio and epsilon strings, as
    that method writes them; anything else raises UsageError.
    """
    def field_of(key: str, kind: type) -> Any:
        if not isinstance(data[key], kind):
            raise TypeError(f"{key} must be a {kind.__name__}, got {type(data[key]).__name__}")
        return data[key]

    try:
        return LeptinCertificate(
            strategy=field_of("strategy", str),
            K=frozenset(_label_from_json(x) for x in field_of("K", list)),
            V=frozenset(_label_from_json(x) for x in field_of("V", list)),
            ratio=exact(field_of("ratio", str), "ratio"),
            epsilon=exact(field_of("epsilon", str), "epsilon"),
            hypergroup=H,
        )
    except (KeyError, TypeError, UsageError) as exc:
        raise UsageError(f"malformed certificate document: {exc}") from exc


# ---------------------------------------------------------------------------
# Ratios
# ---------------------------------------------------------------------------


def leptin_ratio(H: Hypergroup, K: Collection[Label], V: Collection[Label]) -> Fraction:
    """h(K*V) / h(V), exact, by direct support enumeration."""
    if not V:
        raise UsageError("V must be nonempty")
    if not K:
        raise UsageError("K must be nonempty")
    grown = support_product(H, K, V)  # checks every label of K and V
    return H._haar_sum(grown) / H._haar_sum(V)


def su2_interval_ratio(k: Any, m: Any) -> Fraction:
    """Closed-form interval ratio for the dual of SU(2).

    For K the spin interval up to k and V the spin interval up to m >= k,
    equals (sum of the first 2m+2k+1 squares) / (sum of the first 2m+1
    squares); agrees with :func:`leptin_ratio` by direct enumeration.
    """
    k2 = twice_spin(k)
    m2 = twice_spin(m)
    if m2 < k2:
        raise UsageError(f"m = {m} must be at least k = {k}")
    return su2num.interval_ratio_n2(k2, m2)


# ---------------------------------------------------------------------------
# Searches
# ---------------------------------------------------------------------------


def leptin_search_interval(
    k: Any, epsilon: Any, *, hypergroup: Su2Dual | None = None, min_m2: int | None = None
) -> LeptinCertificate:
    """Smallest spin interval V (half-integer steps) with ratio < 1 + epsilon.

    Always terminates: for fixed k the interval ratio decreases strictly to 1.
    """
    k2 = twice_spin(k)
    eps = _epsilon(epsilon)
    H = hypergroup if hypergroup is not None else su2_dual()
    floor = k2 if min_m2 is None else max(k2, min_m2)
    m2 = su2num.min_m2_for_ratio(k2, 1 + eps, m2_floor=floor)
    cert = LeptinCertificate(
        strategy="interval",
        K=range(k2 + 1),
        V=range(m2 + 1),
        ratio=su2num.interval_ratio_n2(k2, m2),
        epsilon=eps,
        hypergroup=H,
    )
    if not cert.verify():
        raise InternalInvariantError("interval certificate failed self-verification")
    return cert


def leptin_search_greedy(
    H: Hypergroup, K: Collection[Label], epsilon: Any, max_size: int = 64
) -> LeptinCertificate | None:
    """Grow V from the identity, adding the ratio-minimizing candidate each step.

    Candidates come from K*V and V*V.  Returns the first certificate with
    ratio < 1 + epsilon, or None if max_size is reached or the candidate
    pool dries up first.
    """
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


def leptin_search_exhaustive(
    H: Hypergroup, K: Collection[Label], epsilon: Any, max_universe: int = 20
) -> LeptinCertificate:
    """Exact ratio minimum over all nonempty subsets of a finite universe.

    Among minimizers returns the smallest V (by size, then label order).
    Serves as the ground-truth oracle for the greedy engine.
    """
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


def leptin_product(
    certs: Sequence[LeptinCertificate], hypergroup: ProductDual | None = None
) -> LeptinCertificate:
    """Combine per-factor certificates into one for the product hypergroup.

    Each factor is re-verified by its own engine, the closed form for an
    interval factor; one that fails raises UsageError naming its position.
    V is the cartesian product of the factor sets.  Componentwise fusion
    makes K*V the product of the factor K_i*V_i, so the ratio is exactly
    the product of the verified factor ratios, and the certificate's
    epsilon is the corresponding compounded tolerance.
    """
    if not certs:
        raise UsageError("at least one factor certificate is required")
    for position, c in enumerate(certs):
        if not c.verify():
            raise UsageError(f"factor certificate certs[{position}] fails verification")
    if len(certs) == 1 and hypergroup is None:
        return certs[0]
    if hypergroup is not None:
        if len(hypergroup.factors) != len(certs):
            raise UsageError(
                f"arity mismatch: product has {len(hypergroup.factors)} factors, "
                f"got {len(certs)} certificates")
        H = hypergroup
    else:
        H = product_dual([c.hypergroup for c in certs])

    cert = LeptinCertificate(
        strategy="product",
        K=frozenset(iter_product(*[tuple(sorted(c.K)) for c in certs])),
        V=frozenset(iter_product(*[tuple(sorted(c.V)) for c in certs])),
        ratio=math.prod(c.ratio for c in certs),
        epsilon=math.prod(1 + c.epsilon for c in certs) - 1,
        hypergroup=H, factors=tuple(certs))
    if not cert.verify():
        raise InternalInvariantError("product certificate failed self-verification")
    return cert

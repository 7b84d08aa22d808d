"""Leptin ratios h(K*V)/h(V) and searches for witnessing sets.

A certificate pins down a finite set V whose weighted growth under
convolution with K stays below 1 + epsilon.  Ratios are exact rationals;
every certificate can re-verify itself from scratch against its hypergroup.

Three search engines, each called as (H, K, epsilon) and by name through
:func:`leptin_search`:

* interval -- closed-form scan on the dual of SU(2): K widened to a spin
  interval, V a spin interval, the ratio a quotient of square-pyramidal numbers;
* greedy -- grows V from the identity, each step adding the candidate that
  minimizes the resulting ratio (ties broken by label order); K*V and its
  Haar mass are carried from step to step, so a candidate c costs one
  memoised K*c and the mass of K*c outside K*V;
* exhaustive -- exact minimum over all nonempty subsets of a small finite
  universe, used as ground truth for the greedy engine: one integer subset
  DP over bitmasks, which holds 24 bytes for each of the 2^n subsets and
  refuses a universe past MAX_LEPTIN_SUBSETS with CapacityError (exit 4)
  before it allocates.

Both searches rest on K*(V | {c}) = K*V | K*c.  Every engine returns its
certificate through :meth:`LeptinCertificate.proven`, which re-verifies it.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iter_product
from typing import Any

import numpy as np

from . import su2num
from .core import (
    INT64_LIMIT,
    MAX_HAAR_ROWS,
    MAX_LEPTIN_SUBSETS,
    CapacityError,
    Hypergroup,
    InternalInvariantError,
    Label,
    UsageError,
    count,
    exact,
    fraction_text,
    label_count,
    label_set,
    shown,
    support_product,
)
from .duals import ProductDual, Su2Dual, product_dual

STRATEGIES = ("interval", "greedy", "exhaustive")


def _epsilon(value: Any) -> Fraction:
    eps = exact(value, "epsilon")
    if eps <= 0:
        raise UsageError(f"epsilon must be positive, got {shown(eps, str)}")
    return eps


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

    @classmethod
    def proven(cls, strategy: str, H: Hypergroup, K: Collection[Label], V: Collection[Label],
               ratio: Fraction, epsilon: Fraction) -> "LeptinCertificate":
        """The certificate, once it re-verifies from scratch, else InternalInvariantError."""
        cert = cls(strategy, K, V, ratio, epsilon, H)
        if not cert.verify():
            raise InternalInvariantError(f"{strategy} certificate failed self-verification")
        return cert

    def recompute_ratio(self) -> Fraction:
        """Re-derive the ratio, by the closed form for spin intervals whatever the strategy."""
        if isinstance(self.hypergroup, Su2Dual):
            k2 = su2num.as_interval(self.K)
            m2 = su2num.as_interval(self.V)
            if k2 is not None and m2 is not None:
                return su2num.interval_ratio_n2(k2, m2)
        if self.strategy == "product" and self.factors:
            return math.prod(cert.recompute_ratio() for cert in self.factors)
        return leptin_ratio(self.hypergroup, self.K, self.V)

    def verify(self) -> bool:
        recomputed = self.recompute_ratio()
        ok = recomputed == self.ratio and self.ratio < 1 + self.epsilon
        self.verified = ok
        return ok

    def to_json_dict(self) -> dict[str, Any]:
        """The certificate as JSON, refused past MAX_HAAR_ROWS labels before K or V is listed."""
        size = label_count(self.K) + label_count(self.V)
        if size > MAX_HAAR_ROWS:
            raise CapacityError(f"the certificate listing has {shown(size)} labels, "
                                f"more than the {MAX_HAAR_ROWS} it may print")
        return {
            "strategy": self.strategy,
            "hypergroup": self.hypergroup.name,
            "K": [_label_to_json(x) for x in sorted(self.K)],
            "V": [_label_to_json(x) for x in sorted(self.V)],
            "ratio": fraction_text(self.ratio),
            "epsilon": fraction_text(self.epsilon),
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
    """h(K*V) / h(V), exact, by direct support enumeration; K and V are read as sets."""
    if not V:
        raise UsageError("V must be nonempty")
    if not K:
        raise UsageError("K must be nonempty")
    grown = support_product(H, K, V)  # checks every label of K and V
    return Fraction(H._haar_sum(grown), H._haar_sum(label_set(V)))


# ---------------------------------------------------------------------------
# Searches
# ---------------------------------------------------------------------------


def leptin_search(H: Hypergroup, K: Collection[Label], epsilon: Any, strategy: str, *,
                  max_size: int = 64, min_m2: int = 0) -> LeptinCertificate:
    """The certificate of the engine named ``strategy``, one of STRATEGIES.

    ``max_size``, a positive count under every strategy, bounds a greedy V,
    and a greedy search that finds none raises CapacityError; ``min_m2``
    floors the top label of an interval V.
    Each engine is looked up by name at the call, so a wrapper rebound to
    that name sees every search.
    """
    count(max_size, "max_size")
    if strategy == "interval":
        return leptin_search_interval(H, K, epsilon, min_m2=min_m2)
    if strategy == "exhaustive":
        return leptin_search_exhaustive(H, K, epsilon)
    if strategy != "greedy":
        raise UsageError(f"unknown Leptin strategy {strategy!r}")
    cert = leptin_search_greedy(H, K, epsilon, max_size=max_size)
    if cert is None:
        raise CapacityError(f"greedy search found no set of size <= {max_size} "
                            f"with ratio below {1 + _epsilon(epsilon)}")
    return cert


def leptin_search_interval(
    H: Hypergroup, K: Collection[Label], epsilon: Any, *, min_m2: int = 0
) -> LeptinCertificate:
    """Least interval V = {0, ..., m2}, m2 >= max K, min_m2, with ratio < 1 + epsilon.

    Only on the dual of SU(2), where K is widened to the interval
    {0, ..., max K}.  Always terminates: for fixed K the interval ratio
    decreases strictly to 1.
    """
    if not isinstance(H, Su2Dual):
        raise UsageError("the interval strategy needs the dual of SU(2)")
    eps = _epsilon(epsilon)
    if not K:
        raise UsageError("K must be nonempty")
    H.check_labels(K)
    H.check_labels((min_m2,))  # a floor on the top label of V
    k2 = max(K[0], K[-1]) if isinstance(K, range) else max(K)  # max() would walk a range
    m2 = su2num.min_m2_for_ratio(k2, 1 + eps, m2_floor=max(k2, min_m2))
    return LeptinCertificate.proven("interval", H, range(k2 + 1), range(m2 + 1),
                                    su2num.interval_ratio_n2(k2, m2), eps)


def leptin_search_greedy(
    H: Hypergroup, K: Collection[Label], epsilon: Any, max_size: int = 64
) -> LeptinCertificate | None:
    """Grow V from the identity, adding the ratio-minimizing candidate each step.

    Candidates come from K*V and V*V.  Returns the first certificate with
    ratio < 1 + epsilon, or None if max_size is reached first.

    Supports grow incrementally: K*(V | {c}) = K*V | K*c, so a candidate's
    ratio is (h(K*V) + h(K*c - K*V)) / (h(V) + h(c)), with K*c fused once
    per search, and the pool (K | V)*V gains (K | V)*c and c*V when c joins V.
    The Haar sums are running sums of the masses :meth:`_haar` returns (ints
    on a dual), so candidates and the bound are compared by cross-multiplying
    positive sums, and only the certificate's ratio is made a Fraction.
    """
    eps = _epsilon(epsilon)
    count(max_size, "max_size")
    if not K:
        raise UsageError("K must be nonempty")
    H.check_labels(K)
    bound = 1 + eps
    grown: dict[Label, frozenset[Label]] = {}  # K*c for each candidate c seen

    def grow(c: Label) -> frozenset[Label]:
        if c not in grown:
            grown[c] = H._support_product(K, (c,))
        return grown[c]

    def add(c: Label) -> None:
        nonlocal h_kv, h_v
        new = grow(c) - KV
        V.add(c)
        KV.update(new)
        h_kv += H._haar_sum(new)
        h_v += H._haar(c)
        pool.update(H._support_product(V.union(K), (c,)))
        if not H.commutative:
            pool.update(H._support_product((c,), V))

    V: set[Label] = set()
    KV: set[Label] = set()
    pool: set[Label] = set()  # (K | V)*V, from which the candidates come
    h_kv = h_v = 0
    add(H.identity)
    while True:
        if h_kv * bound.denominator < bound.numerator * h_v:
            return LeptinCertificate.proven("greedy", H, frozenset(K), frozenset(V),
                                            Fraction(h_kv, h_v), eps)
        if len(V) >= max_size:
            return None
        # never empty: K*V lies in the pool, so a pool within V would have given ratio <= 1
        best, n_best, d_best = None, 1, 0  # 1/0, above every candidate's n/d
        for c in pool - V:
            n, d = h_kv + H._haar_sum(grow(c) - KV), h_v + H._haar(c)
            new, old = n * d_best, n_best * d  # n/d against n_best/d_best
            if new < old or new == old and c < best:  # the least label wins a tie
                best, n_best, d_best = c, n, d
        add(best)


def leptin_search_exhaustive(
    H: Hypergroup, K: Collection[Label], epsilon: Any
) -> LeptinCertificate:
    """Exact ratio minimum over all nonempty subsets of a finite universe.

    Among minimizers returns the smallest V (by size, then label order).
    Serves as the ground-truth oracle for the greedy engine.  A universe of
    n labels with 2^n over MAX_LEPTIN_SUBSETS raises CapacityError before
    any table is built.
    """
    eps = _epsilon(epsilon)
    if not K:
        raise UsageError("K must be nonempty")
    universe = H.universe
    if universe is None:
        raise CapacityError(f"{H.name} has no finite universe to enumerate")
    n = len(universe)
    if 1 << n > MAX_LEPTIN_SUBSETS:
        raise CapacityError(
            f"an exhaustive search over {n} labels tabulates {1 << n} subsets; "
            f"the budget is {MAX_LEPTIN_SUBSETS}")
    H.check_labels(K)

    best_ratio, best_mask = _subset_minimum(H, K, universe)
    best_v = tuple(x for i, x in enumerate(universe) if best_mask >> (n - 1 - i) & 1)
    if not best_ratio < 1 + eps:
        raise InternalInvariantError(
            f"exhaustive minimum {best_ratio} does not meet 1 + epsilon = {1 + eps}")
    return LeptinCertificate.proven("exhaustive", H, frozenset(K), frozenset(best_v),
                                    best_ratio, eps)


def _subset_minimum(
    H: Hypergroup, K: Collection[Label], universe: Sequence[Label]
) -> tuple[Fraction, int]:
    """The least ratio h(K*V)/h(V) over nonempty V within a sorted universe, and V's mask.

    Label i is bit n-1-i of a mask, so among masks of one size, descending
    order is the lexicographic order of the subsets' sorted labels; the
    minimizer is the one of least size, then largest mask.  Haar masses are
    scaled to integers by a common denominator (1 on a dual).  Since
    K*(V | {x}) = K*V | K*x, one doubling pass per bit fills the mask of
    K*V and the scaled h(V) for all 2^n subsets, and h(K*V) is h at the
    mask of K*V.  Each float ratio is the correctly rounded quotient of two
    exact integers, so every exact minimizer has the least float; the float
    only narrows the candidates, which are compared exactly.
    """
    n = len(universe)
    masses = [H._haar(x) for x in universe]
    scale = math.lcm(*(q.denominator for q in masses))
    weights = [int(q * scale) for q in masses]
    # then int64 holds each product of two sums below, and float64 each sum exactly
    dtype = np.int64 if sum(weights) ** 2 < INT64_LIMIT else object
    position = {x: i for i, x in enumerate(universe)}
    grown = np.zeros(1 << n, dtype=np.int64)  # mask of K*V
    h_v = np.zeros(1 << n, dtype=dtype)  # scaled h(V)
    for b in range(n):
        i = n - 1 - b
        grown_x = sum(1 << (n - 1 - position[z])
                      for z in H._support_product(K, (universe[i],)))
        half = 1 << b
        np.bitwise_or(grown[:half], grown_x, out=grown[half:2 * half])
        np.add(h_v[:half], weights[i], out=h_v[half:2 * half])
    h_kv = h_v[grown]  # scaled h(K*V)
    ratio = grown.view(np.float64) if dtype is np.int64 else np.empty(1 << n)
    ratio[0] = np.inf  # V must be nonempty
    np.true_divide(h_kv[1:], h_v[1:], out=ratio[1:], casting="unsafe")

    near = np.flatnonzero(ratio == ratio.min())
    num, den = h_kv[near], h_v[near]
    best = min(Fraction(a, b) for a, b in set(zip(num.tolist(), den.tolist())))
    winners = near[num * best.denominator == den * best.numerator]
    sizes = sum((winners >> b) & 1 for b in range(n))
    return best, int(winners[sizes == sizes.min()].max())


def leptin_product(
    certs: Sequence[LeptinCertificate], hypergroup: ProductDual | None = None
) -> LeptinCertificate:
    """Combine per-factor certificates into one for the product hypergroup.

    Each factor is re-verified once, by its own engine, the closed form for
    an interval factor; one that fails raises UsageError naming its
    position, as does, when ``hypergroup`` is given, one that is not on the
    factor at its position.  V is the cartesian product of the factor
    sets.  Componentwise fusion makes K*V the product of the factor
    K_i*V_i, so the ratio is exactly the product of the verified factor
    ratios, and the certificate's epsilon is the corresponding compounded
    tolerance.  The product is marked verified from that one pass; its
    :meth:`~LeptinCertificate.verify` still recomputes every factor from
    scratch.
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
        for position, (c, factor) in enumerate(zip(certs, hypergroup.factors)):
            if c.hypergroup is not factor:
                raise UsageError(f"certs[{position}] is a certificate on {c.hypergroup.name}, "
                                 f"not on factor {position} of {hypergroup.name}")
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
    # each ratio_i < 1 + epsilon_i, so the product is below its compounded bound
    cert.verified = cert.ratio < 1 + cert.epsilon
    if not cert.verified:
        raise InternalInvariantError("product certificate failed self-verification")
    return cert

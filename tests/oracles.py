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

A-norms on su2-hat: :func:`interval_product_l1_antiderivative` and
:func:`a_norm_su2_antiderivative` integrate by antiderivatives between
sign changes, so the quadrature has an oracle that shares none of it.
:func:`kernel_sum` is S_M in closed form, for the kernel-zero checks, and
:func:`kernel_roots_every_sweep` is the Newton iteration for the zeros that
sweeps every root until all have stopped.  :func:`interval_product_breakpoints`
makes every break of the interval integrand at once, and
:func:`interval_product_l1_whole` climbs the ladder over that whole array, as
the library did before it made its breaks chunk by chunk.

The defining loops the library's engines replaced: every ordered pair of a
support product (:func:`support_product_ordered_loops`), associativity by
extending each triple's fusions in Fractions
(:func:`associativity_failures_loops`), and a character table's inner
products, validation and multiplicities by its class loop
(:func:`inner_loops`, :func:`validate_loops`, :func:`multiplicity_loops`).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Collection
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from operator import mul
from typing import Any

import numpy as np

from hypergroups import CharacterTable, ExactComplex
from hypergroups.core import (
    AxiomFailure,
    CapacityError,
    FiniteMeasure,
    Hypergroup,
    InternalInvariantError,
    InvalidTableError,
    Label,
    NumericError,
    UsageError,
    count,
    support_product,
)
from hypergroups.leptin import LeptinCertificate, _epsilon, leptin_ratio
from hypergroups import su2num
from hypergroups.su2num import _NEWTON_SWEEPS, _ROOT_SLACK


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


def support_product_ordered_loops(
    H: Hypergroup, A: Collection[Label], B: Collection[Label]
) -> frozenset[Label]:
    """The union of the fusion supports of every ordered pair of A x B."""
    return frozenset(z for x in A for y in B for z in H._fuse(x, y).support)


# ---------------------------------------------------------------------------
# Associativity by bilinear extension
# ---------------------------------------------------------------------------


def fuse_linear(mu: FiniteMeasure,
                fuse_with: Callable[[Label], FiniteMeasure]) -> FiniteMeasure:
    """sum_t mu(t) fuse_with(t): a point fusion extended linearly over mu."""
    acc: dict[Label, Fraction] = {}
    for t, mass in mu.items():
        for w, m2 in fuse_with(t).items():
            acc[w] = acc.get(w, Fraction(0)) + mass * m2
    return FiniteMeasure(acc)


def associativity_failures_loops(
    H: Hypergroup, triples: list[tuple[Label, Label, Label]]
) -> list[AxiomFailure]:
    """Associativity failures by extending each triple's fusions in Fractions."""
    failures = []
    for x, y, z in triples:
        left = fuse_linear(H._fuse(x, y), lambda t: H._fuse(t, z))
        right = fuse_linear(H._fuse(y, z), lambda t: H._fuse(x, t))
        if left != right:
            failures.append(AxiomFailure(
                "associativity",
                (H.label_str(x), H.label_str(y), H.label_str(z)),
                "bilinear extensions of (x*y)*z and x*(y*z) differ"))
    return failures


# ---------------------------------------------------------------------------
# Character tables by the class loop
# ---------------------------------------------------------------------------


def class_sum(table: CharacterTable, *rows: int) -> ExactComplex:
    """sum_c |c| chi_r1(c) ... chi_r(n-1)(c) conj(chi_rn(c)), by the class loop."""
    total = ExactComplex.coerce(0)
    for c, size in enumerate(table.class_sizes):
        term = ExactComplex.coerce(size)
        for r in rows[:-1]:
            term = term * table.irreps[r].values[c]
        total = total + term * table.irreps[rows[-1]].values[c].conjugate()
    return total


def inner_loops(table: CharacterTable, i: int, j: int) -> ExactComplex:
    """<chi_i, chi_j> * |G| by the class loop."""
    return class_sum(table, i, j)


def validate_loops(table: CharacterTable) -> tuple[int, tuple[int, ...]]:
    """``CharacterTable._validate`` by pairwise loops over rows and values."""
    n, order = table.n_irreps, table.group_order
    for i in range(n):
        for j in range(i, n):
            value = inner_loops(table, i, j)
            if value != (order if i == j else 0):
                table._orthogonality_error(i, j, value)
    trivial = [i for i, row in enumerate(table.irreps)
               if row.dim == 1 and all(v == 1 for v in row.values)]
    if len(trivial) != 1:
        raise InvalidTableError(
            f"{table.name}: expected exactly one trivial irrep, found {len(trivial)}")
    conjugates = tuple(
        table._conjugate_of(i, [j for j, other in enumerate(table.irreps)
                                if other.dim == row.dim and all(
                                    a.conjugate() == b
                                    for a, b in zip(row.values, other.values))])
        for i, row in enumerate(table.irreps))
    return trivial[0], conjugates


def multiplicity_loops(table: CharacterTable, i: int, j: int, k: int) -> int:
    """``CharacterTable.multiplicity`` by the class loop."""
    return table._checked_multiplicity(i, j, k, class_sum(table, i, j, k))


# ---------------------------------------------------------------------------
# A-norms on su2-hat by antiderivatives, with no quadrature
# ---------------------------------------------------------------------------
#
# On each piece between consecutive sign changes of a cosine series g, the
# integral of |g| is |G(b) - G(a)| for an antiderivative G.  The zeros come
# from bisection on the sine forms, so neither oracle shares the library's
# quadrature, kernel Newton iteration or Chebyshev root finder.


def kernel_sum(M: int, theta: np.ndarray) -> np.ndarray:
    """S_M(theta) = sum_{k=1}^{M} k sin(k theta) in closed form, valid on (0, pi)."""
    a = M + 0.5
    half = 0.5 * theta
    s = np.sin(half)
    c = np.cos(half)
    return (c * np.sin(a * theta) - (2 * M + 1) * s * np.cos(a * theta)) / (4 * s * s)


def _bisect(fn, lo: np.ndarray, hi: np.ndarray, iterations: int = 60) -> np.ndarray:
    """One zero of fn in each bracket [lo, hi] where fn changes sign."""
    lo_sign = np.sign(fn(lo))
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        same = np.sign(fn(mid)) == lo_sign
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def _antiderivative_l1(constant: float, cosines: np.ndarray, breaks: np.ndarray) -> float:
    """(2/pi) sum_i |G(b_{i+1}) - G(b_i)| for g = constant + sum_j cosines[j-1] cos(j theta).

    G(theta) = constant theta + sum_j cosines[j-1] sin(j theta) / j, summed
    directly in O(len(breaks) len(cosines)), 256 breaks at a time.
    """
    j = np.arange(1, len(cosines) + 1)
    weights = cosines / j
    G = np.concatenate([np.sin(np.outer(chunk, j)) @ weights
                        for chunk in np.array_split(breaks, max(1, len(breaks) // 256))])
    G += constant * breaks
    return (2.0 / math.pi) * float(np.sum(np.abs(np.diff(G))))


def interval_product_l1_antiderivative(P: int, Q: int) -> float:
    """(2/pi) integral of |S_P S_Q| over (0, pi) as sum_i |G(r_{i+1}) - G(r_i)|.

    With S_M = sum_{k <= M} k sin(k theta), S_P S_Q = A(0)/2 + (1/2) sum_j
    (A(j) - B(j)) cos(j theta), where A(j) = sum_{|p-q| = j} p q and
    B(j) = sum_{p+q = j} p q over p <= P, q <= Q, so
    G(theta) = A(0) theta / 2 + (1/2) sum_j (A(j) - B(j)) sin(j theta) / j.
    The r_i are 0, pi and the zeros of S_P and S_Q, one in each bracket
    [k pi/a, (k + 1/2) pi/a], k = 1 .. M-1, a = M + 1/2, found by bisection on
    4 sin^2(theta/2) S_M = cos(theta/2) sin(a theta) - 2a sin(theta/2) cos(a theta).
    """
    p, q = np.arange(P + 1), np.arange(Q + 1)
    lags = np.convolve(p, q[::-1])  # lags[Q + m] = sum_{p - q = m} p q, exact in int64
    A = np.zeros(P + Q + 1, dtype=np.int64)
    A[:P + 1] += lags[Q:]
    A[1:Q + 1] += lags[:Q][::-1]
    B = np.convolve(p, q)
    cosines = 0.5 * (A[1:] - B[1:]).astype(float)

    def zeros(M: int) -> np.ndarray:
        a = M + 0.5
        k = np.arange(1, M, dtype=float)

        def g(theta: np.ndarray) -> np.ndarray:
            return (np.cos(0.5 * theta) * np.sin(a * theta)
                    - 2 * a * np.sin(0.5 * theta) * np.cos(a * theta))

        return _bisect(g, k * math.pi / a, (k + 0.5) * math.pi / a)

    breaks = np.unique(np.concatenate([[0.0, math.pi], zeros(P), zeros(Q)]))
    return _antiderivative_l1(0.5 * A[0], cosines, breaks)


def a_norm_su2_antiderivative(v: dict[int, float], grid_factor: int = 64) -> float:
    """A-norm of v on su2-hat as sum_i |G(r_{i+1}) - G(r_i)|.

    With c_n = v(n) (n + 1), the integrand (2/pi) |sum_n c_n U_n(cos theta)|
    sin^2 theta is (2/pi) |g|, g = sum_n c_n sin((n+1) theta) sin theta
    = sum_k e_k cos(k theta), e_k = (c_k - c_{k-2}) / 2.  Its sign changes
    in (0, pi) are those of s = sum_n c_n sin((n+1) theta): sign changes on
    a grid of grid_factor (N + 2) points, then bisection, and the grid
    points where s is exactly 0.
    """
    N = max(v)
    c = np.zeros(N + 3)
    for n, value in v.items():
        c[n] = value * (n + 1)
    e = 0.5 * (c - np.concatenate([[0.0, 0.0], c[:-2]]))
    freqs = np.arange(1, N + 2)

    def s(theta: np.ndarray) -> np.ndarray:
        return np.sin(np.outer(theta, freqs)) @ c[:N + 1]

    grid = np.linspace(0.0, math.pi, grid_factor * (N + 2) + 1)[1:-1]
    values = s(grid)
    # a grid point where s is exactly 0 is a zero itself, and brackets none
    nonzero = values != 0
    sign = np.sign(values[nonzero])
    flips = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    zeros = _bisect(s, grid[nonzero][flips], grid[nonzero][flips + 1])
    breaks = np.sort(np.concatenate([[0.0], zeros, grid[~nonzero], [math.pi]]))
    return _antiderivative_l1(e[0], e[1:], breaks)


# ---------------------------------------------------------------------------
# Kernel zeros with no per-root stopping and no blocks
# ---------------------------------------------------------------------------


def kernel_roots_every_sweep(M: int) -> np.ndarray:
    """The zeros of S_M by su2num.kernel_roots' Newton iteration, every root every sweep.

    One array of all M - 1 brackets, swept until the largest step of any
    root is within the slack; the library stops each root on its own and
    works block by block, and must return the same bits.
    """
    if M <= 1:
        return np.empty(0)
    a = M + 0.5
    k_pi = np.arange(1, M) * math.pi
    phi = 0.5 * math.pi - np.arctan(1.0 / (2 * a * np.tan((0.5 / a) * (k_pi + 0.5 * math.pi))))
    scale = (2 * a * a - 0.5) / a
    for _ in range(_NEWTON_SWEEPS):
        step = 1.0 / np.tan((0.5 / a) * (k_pi + phi))
        step -= 2 * a / np.tan(phi)
        step /= scale
        phi -= step
        if np.max(np.abs(step)) <= a * _ROOT_SLACK:
            break
    else:
        raise InternalInvariantError(f"kernel_roots_every_sweep({M}): Newton did not converge")
    phi += k_pi
    phi /= a
    return phi


# ---------------------------------------------------------------------------
# The interval A-norm over every break at once
# ---------------------------------------------------------------------------


def interval_product_breakpoints(P: int, Q: int) -> np.ndarray:
    """0, pi and the interior zeros of S_P and S_Q, sorted, without repeats."""
    return su2num._breaks(np.concatenate(
        [[0.0, math.pi], su2num.kernel_roots(P), su2num.kernel_roots(Q)]))


def interval_product_l1_whole(P: int, Q: int, tolerance: float) -> tuple[float, float]:
    """su2num.interval_product_l1 with every break made before the first is integrated.

    The whole array of :func:`interval_product_breakpoints` is cut into runs
    of CHUNK_PIECES pieces, and the chunks climb QUADRATURE_LADDER by the
    same rule, integrated by one unblocked integrand call per batch.  The
    library must return the same bits.
    """
    a_p, a_q = P + 0.5, Q + 0.5
    scale = 0.5 / math.pi
    h = float(su2num.sum_squares(Q))

    def integrand(left: np.ndarray, offset: np.ndarray) -> np.ndarray:
        return su2num._abs_kernel_product(a_p, a_q, left, offset)

    def quadrature(rung: int, chunk: np.ndarray) -> tuple[float, float]:
        order, split = su2num.QUADRATURE_LADDER[rung]
        total, residual = su2num.gauss_kronrod(integrand, chunk, split, order)
        return scale * total / h, scale * residual / h

    breaks = interval_product_breakpoints(P, Q)
    pieces = su2num.CHUNK_PIECES
    chunks = [breaks[start:start + pieces + 1] for start in range(0, len(breaks) - 1, pieces)]
    values, residuals = map(list, zip(*(quadrature(0, chunk) for chunk in chunks)))
    rungs = [0] * len(chunks)
    last = len(su2num.QUADRATURE_LADDER) - 1
    while (residual := sum(residuals)) > tolerance:
        climbable = [i for i, rung in enumerate(rungs) if rung < last]
        if not climbable:
            raise NumericError(f"residual {residual:.3e} exceeds {tolerance:.3e}",
                               residual=residual)
        chunk = max(climbable, key=residuals.__getitem__)
        rungs[chunk] += 1
        values[chunk], residuals[chunk] = quadrature(rungs[chunk], chunks[chunk])
    return sum(values), residual

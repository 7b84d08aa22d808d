"""Witness sequences: bounded in the A-norm, unbounded in a central Segal norm.

The construction chains plateau functions u_1, u_2, ... so that

* u_n u_m = u_n exactly for all n < m (each later plateau is 1 on the
  support of every earlier one),
* every A-norm bound sqrt(h(K_n * V_n) / h(V_n)) stays below a fixed D > 1,
* the central Segal norm grows at least like h(K_n)^(1/p), because u_n is
  exactly 1 on K_n and nonnegative.

Stages are inherently sequential: K_{n+1} = K_n * V_n * ~V_n is the support
of u_n, which forces the next plateau to be 1 there.  A search that returns
a V with no growth (always possible at the identity, where the ratio is 1)
would freeze the chain, so stages expand V, one label at a time, past that
point while the ratio stays below D^2.  On a finite dual the chain still
stops growing: it repeats one K once no single added label keeps the ratio
below D^2.  That K need not be the universe.  With greedy stages at D = 1.1
it is all of S3-hat, Z4-hat and Q8-hat, but 2 of the 30 labels of the dual
of S3 x Q8 x Z2, where any one added label raises the ratio to at least
4/3 > 1.21.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Collection
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .core import (
    MAX_WITNESS_TERMS,
    CapacityError,
    Hypergroup,
    HypergroupError,
    InternalInvariantError,
    Label,
    UsageError,
    count,
    exact,
    fraction_text,
    real,
    shown,
    support_product,
)
from .duals import Su2Dual
from .fourier import (
    DEFAULT_QUADRATURE,
    Plateau,
    QuadratureConfig,
    a_norm_residual,
    bump,
)
from .leptin import LeptinCertificate, leptin_ratio, leptin_search


@dataclass
class WitnessSequence:
    """The chained plateau functions and their Leptin certificates.

    ``next_K`` is the support of the last term, the set the next stage
    would have to cover.
    """

    hypergroup: Hypergroup
    D: Fraction
    strategy: str
    terms: list[Plateau]
    next_K: Collection[Label]
    certificates: list[LeptinCertificate] = field(default_factory=list)
    _a_cache: dict[tuple[Plateau, float], Any] = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def K_chain(self) -> list[Collection[Label]]:
        """Each term's K, then ``next_K``."""
        return [term.K for term in self.terms] + [self.next_K]

    @property
    def V_chain(self) -> list[Collection[Label]]:
        return [term.V for term in self.terms]

    @property
    def ratios(self) -> list[Fraction]:
        return [term.ratio for term in self.terms]

    def a_values(self, config: QuadratureConfig | None = None) -> list[Any]:
        """Measured A-norms per term (quadrature on su2-hat, exact on finite duals).

        A quadrature value carries its residual; :func:`a_norm_residual` reads it.
        Each value is kept per plateau and tolerance, so a replaced term is
        measured alone.
        """
        tolerance = (config or DEFAULT_QUADRATURE).tolerance
        for term in self.terms:
            if (term, tolerance) not in self._a_cache:
                self._a_cache[term, tolerance] = term.a_norm(config)
        return [self._a_cache[term, tolerance] for term in self.terms]

    def chain_failures(self) -> list[tuple[int, int, str]]:
        """Exact check of u_n u_m = u_n for all n < m; witnesses on failure."""
        failures = []
        for i in range(len(self.terms)):
            for j in range(i + 1, len(self.terms)):
                witness = absorption_witness(self.terms[i], self.terms[j])
                if witness is not None:
                    failures.append((i + 1, j + 1, self.hypergroup.label_str(witness)))
        return failures


def absorption_witness(earlier: Plateau, later: Plateau) -> Label | None:
    """The smallest label where earlier * later != earlier, or None when absorbed.

    The product equals ``earlier`` exactly where ``later`` is 1 on the
    support of ``earlier``, so every label of that support is checked.
    """
    return later.first_not_one(earlier.support)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _interval_stage(H: Hypergroup, K: Collection[Label], cap: Fraction, search: str,
                    max_size: int) -> Plateau:
    """One O(1) interval stage: the least m2 >= max(k2, 1) with ratio below cap^2."""
    cert = leptin_search(H, K, cap * cap - 1, search, min_m2=1)
    term = bump(H, cert.K, cert.V)
    term.check_support_budget("witness stage")
    return term


def _expansion_pool(H: Hypergroup, K: Collection[Label], V: set[Label]) -> list[Label]:
    if H.universe is not None:
        return sorted(set(H.universe) - V)
    pool = set(support_product(H, K, V)) | set(support_product(H, V, V))
    if isinstance(H, Su2Dual):
        pool.add(max(V) + 1)
    return sorted(pool - V)


def _search_stage(H: Hypergroup, K: Collection[Label], cap: Fraction, search: str,
                  max_size: int) -> Plateau:
    """One greedy or exhaustive stage, with V expanded past a frozen chain."""
    K = frozenset(K)
    bound = cap * cap
    V = set(leptin_search(H, K, bound - 1, search, max_size=max_size).V)
    term = bump(H, K, V)
    # expand V past a frozen chain, one label at a time, while the ratio allows it
    while K.issuperset(term.support) and len(V) < max_size:
        extra = next((c for c in _expansion_pool(H, K, V)
                      if leptin_ratio(H, K, V | {c}) < bound), None)
        if extra is None:
            break
        V = V | {extra}
        term = bump(H, K, V)
    return term


def build_witness(H: Hypergroup, K0: Collection[Label], D: Any, N: int,
                  search: str = "greedy", *, max_size: int = 64) -> WitnessSequence:
    """Build the N-term witness chain with per-stage ratio below D^2.

    ``search`` names the per-stage engine of :func:`leptin_search`:
    "interval" (dual of SU(2) only; K0 is widened to the spin interval below
    its top label), "greedy", or "exhaustive" (finite duals).  An error a
    stage raises names the stage.  Each stage's certificate is proven once
    from its plateau, which verifies exactly that the ratio is below D^2.
    The next K is the plateau's support, K*V*~V exactly: every term of
    1_{K*V} *_h 1_{~V} is a positive Haar weight times a positive fusion
    mass, so nothing cancels.  Each plateau is 1 on its K: :func:`bump`
    checks u = 1 on K label by label, and the interval plateau's closed
    form, proved against its recurrence, is 1 on K.  That implies the chain
    law u_n u_m = u_n for all n < m, since each support holds the earlier
    supports; so the chain is not scanned here.
    :func:`check_multiplier_bounded` scans it, label by label, and so
    catches a term replaced after construction.
    """
    cap = exact(D, "D")
    if cap <= 1:
        raise UsageError(f"D must exceed 1, got {shown(cap, str)}")
    if count(N, "N") > MAX_WITNESS_TERMS:
        raise CapacityError(
            f"N = {shown(N)} exceeds the budget of {MAX_WITNESS_TERMS} witness terms")
    count(max_size, "max_size")
    if not K0:
        raise UsageError("K0 must be nonempty")
    H.check_labels(K0)
    next_stage = _interval_stage if search == "interval" else _search_stage
    K, terms, certs = K0, [], []
    for stage in range(1, N + 1):
        try:
            term = next_stage(H, K, cap, search, max_size)
            cert = LeptinCertificate.proven(search, H, term.K, term.V, term.ratio,
                                            cap * cap - 1)
        except HypergroupError as exc:
            exc.args = (f"stage {stage}: {exc}",)
            raise
        terms.append(term)
        certs.append(cert)
        K = term.support
    return WitnessSequence(H, cap, search, terms, K, certs)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class BlowupRow:
    n: int
    K_size: int
    V_size: int
    ratio: Fraction
    a_bound: float
    a_value: Any
    segal_p: float
    lower_bound: float
    a_residual: float


@dataclass
class BlowupReport:
    """Per-stage norms and the measured Segal-norm growth factor."""

    p: Any
    rows: list[BlowupRow]
    growth_factor: float
    exact_growth_power: Fraction | None  # segal_p(u_N)^p / segal_p(u_1)^p when p is integral

    CSV_COLUMNS = ("n", "K_size", "V_size", "ratio", "a_bound", "a_value",
                   "segal_p", "lower_bound")
    JSON_COLUMNS = CSV_COLUMNS + ("a_residual",)

    def to_json_dict(self) -> dict[str, Any]:
        def num(x: Any) -> Any:
            return fraction_text(x) if isinstance(x, Fraction) else x

        return {
            "p": num(self.p),
            "growth_factor": self.growth_factor,
            "exact_growth_power": num(self.exact_growth_power),
            "rows": [
                {col: num(getattr(row, col)) for col in self.JSON_COLUMNS}
                for row in self.rows
            ],
        }

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.CSV_COLUMNS)
        for row in self.rows:
            writer.writerow([
                row.n, row.K_size, row.V_size,
                fraction_text(row.ratio),
                f"{row.a_bound:.17g}",
                f"{float(row.a_value):.17g}",
                f"{row.segal_p:.17g}",
                f"{row.lower_bound:.17g}",
            ])
        return buf.getvalue()


def blowup_report(w: WitnessSequence, p: Any,
                  config: QuadratureConfig | None = None) -> BlowupReport:
    """Tabulate a_bound, a_value, the p-Segal norm and its exact lower bound.

    The lower bound h(K_n)^(1/p) is certified in rational arithmetic: each
    u_n is exactly 1 on K_n and nonnegative, so the norm's p-th power
    dominates h(K_n) term by term.
    """
    if not (1 <= real(p, "p") <= 2):
        raise UsageError(f"the central Segal norm requires p in [1, 2], got {p}")
    integral_p = float(p).is_integer()
    a_values = w.a_values(config)
    rows = []
    power_sums: list[Fraction | None] = []
    for idx, term in enumerate(w.terms):
        h_k = w.hypergroup.haar_sum(term.K)
        if integral_p:
            power = term.segal_power_sum(int(p))
            if power < h_k:
                raise InternalInvariantError(
                    f"stage {idx + 1}: Segal power sum {power} below its "
                    f"certified lower bound {h_k}")
            power_sums.append(power)
            segal_value = float(power) ** (1.0 / float(p))
        else:
            if not term.is_one_on(term.K):
                raise InternalInvariantError(
                    f"stage {idx + 1}: plateau is not 1 on K")
            power_sums.append(None)
            segal_value = term.segal_norm(p)
        rows.append(BlowupRow(
            n=idx + 1,
            K_size=len(term.K),
            V_size=len(term.V),
            ratio=term.ratio,
            a_bound=term.a_norm_bound,
            a_value=a_values[idx],
            segal_p=segal_value,
            lower_bound=float(h_k) ** (1.0 / float(p)),
            a_residual=a_norm_residual(a_values[idx]),
        ))
    growth = rows[-1].segal_p / rows[0].segal_p
    exact_growth = None
    if integral_p and power_sums[0]:
        exact_growth = power_sums[-1] / power_sums[0]
    return BlowupReport(p=p, rows=rows, growth_factor=growth,
                        exact_growth_power=exact_growth)


@dataclass
class CheckReport:
    """Outcome of the multiplier-boundedness verification.

    ``a_residuals`` holds each A-norm's quadrature residual (0 where the
    value is exact), and the cap must hold for every value plus its residual.
    """

    product_ok: bool
    product_failures: list[tuple[int, int, str]]
    a_values: list[Any]
    max_a_value: float
    cap: float
    tolerance: float
    a_residuals: list[float]

    @property
    def bound_ok(self) -> bool:
        highest = max(float(a) + r for a, r in zip(self.a_values, self.a_residuals))
        return highest <= self.cap + self.tolerance

    @property
    def ok(self) -> bool:
        return self.product_ok and self.bound_ok

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "product_ok": self.product_ok,
            "product_failures": [
                {"n": n, "m": m, "label": label}
                for n, m, label in self.product_failures
            ],
            "a_values": [float(a) for a in self.a_values],
            "a_residuals": self.a_residuals,
            "max_a_value": self.max_a_value,
            "cap": self.cap,
            "tolerance": self.tolerance,
            "bound_ok": self.bound_ok,
            "ok": self.ok,
        }


def check_tolerance(tolerance: float) -> None:
    """Raise UsageError unless the A-norm cap tolerance is finite and nonnegative."""
    if not (math.isfinite(real(tolerance, "tolerance")) and tolerance >= 0):
        raise UsageError(f"tolerance must be finite and nonnegative, got {tolerance}")


def check_multiplier_bounded(w: WitnessSequence,
                             config: QuadratureConfig | None = None,
                             tolerance: float = 1e-6) -> CheckReport:
    """Verify the chain law exactly and the A-norm cap within tolerance.

    Each A-norm plus its quadrature residual must be at most D + tolerance.
    Failures are recorded with witnesses, not raised: a corrupted sequence
    produces a failing report.  A tolerance that is negative or not finite
    raises UsageError.
    """
    check_tolerance(tolerance)
    failures = w.chain_failures()
    a_values = w.a_values(config)
    max_a = max(float(a) for a in a_values)
    return CheckReport(
        product_ok=not failures,
        product_failures=failures,
        a_values=a_values,
        max_a_value=max_a,
        cap=float(w.D),
        tolerance=tolerance,
        a_residuals=[a_norm_residual(a) for a in a_values],
    )

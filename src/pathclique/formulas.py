"""Closed-form clique counts for the named constructions.

Everything here is exact integer (or exact rational) arithmetic; the
threshold comparison deliberately never touches floating point because it
has genuine equality boundaries (e.g. k=9, m=5, r=2 gives 3 vs 24/8).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb


class ParameterError(ValueError):
    """Raised for parameter triples outside a formula's domain."""


def delta_k(k: int) -> int:
    """floor(k/2) - 1, the degree parameter of all constructions."""
    if k < 2:
        raise ParameterError("k must be at least 2")
    return k // 2 - 1


def part_sizes(n: int, p: int) -> list[int]:
    """Balanced part sizes of the Turan graph T(n,p), descending.

    T(n,p) = K_n when p >= n, realised as n singleton parts.
    """
    if n < 0 or p < 1:
        raise ParameterError("need n >= 0 and p >= 1")
    if p >= n:
        return [1] * n
    q, rem = divmod(n, p)
    return [q + 1] * rem + [q] * (p - rem)


def turan_edges(n: int, p: int) -> int:
    """t(n,p), the number of edges of T(n,p)."""
    sizes = part_sizes(n, p)
    return comb(n, 2) - sum(comb(s, 2) for s in sizes)


def turan_cliques(n: int, p: int, r: int) -> int:
    """N_r(T(n,p)): elementary symmetric polynomial of the part sizes."""
    if r < 0:
        raise ParameterError("r must be nonnegative")
    sizes = part_sizes(n, p)
    coeffs = [1] + [0] * r
    for s in sizes:
        for i in range(min(r, len(coeffs) - 1), 0, -1):
            coeffs[i] += s * coeffs[i - 1]
    return coeffs[r]


def _nch(a: int, b: int) -> int:
    return comb(a, b) if 0 <= b <= a else 0


def _tc(n: int, p: int, r: int) -> int:
    # turan_cliques with N_r = 0 for negative r
    return 0 if r < 0 else turan_cliques(n, p, r)


@dataclass(frozen=True)
class TheoremParams:
    """Validated (k, m, r) triple for the main theorems."""

    k: int
    m: int
    r: int

    def __post_init__(self) -> None:
        if self.k < 4:
            raise ParameterError("k must be at least 4")
        if self.m < 3:
            raise ParameterError("m must be at least 3")
        if self.r < 2:
            raise ParameterError("r must be at least 2")
        if self.k <= self.m:
            raise ParameterError("need k > m")
        if self.r > min(self.m - 1, self.delta + 1):
            raise ParameterError("need r <= min(m-1, delta_k+1)")

    @property
    def delta(self) -> int:
        return delta_k(self.k)


@dataclass(frozen=True)
class CaseLabel:
    """Outcome of the density threshold comparison.

    tag is Case1 exactly when lhs > rhs (strict); the boundary equality
    falls to Case2.
    """

    tag: str
    lhs: int
    rhs: Fraction

    def __post_init__(self) -> None:
        assert (self.tag == "Case1") == (self.lhs > self.rhs)


def threshold_case(k: int, m: int, r: int) -> CaseLabel:
    """Compare N_{r-1}(T(delta_k, m-2)) against N_r(T(k-1, m-1))/(k-1)."""
    p = TheoremParams(k, m, r)
    lhs = turan_cliques(p.delta, m - 2, r - 1)
    rhs = Fraction(turan_cliques(k - 1, m - 1, r), k - 1)
    tag = "Case1" if lhs > rhs else "Case2"
    return CaseLabel(tag, lhs, rhs)


def _h_count(n: int, m: int, k: int, r: int) -> int:
    """N_r of the three-case extremal construction; m = k permitted."""
    dk = delta_k(k)
    if m <= dk + 2:
        return _tc(dk, m - 2, r) + _tc(dk, m - 2, r - 1) * (n - dk)
    value = _nch(dk, r) + _nch(dk, r - 1) * (n - dk)
    if k % 2 == 1:
        value += _nch(dk, r - 2)
    return value


def h_value(n: int, m: int, k: int, r: int) -> int:
    """N_r(H_n(m,k)) in closed form."""
    if k < 4 or m < 3 or m >= k:
        raise ParameterError("need k >= 4, m >= 3, m < k")
    if r < 0:
        raise ParameterError("r must be nonnegative")
    dk = delta_k(k)
    if n < dk + 2:
        raise ParameterError(f"need n >= delta_k + 2 = {dk + 2}")
    return _h_count(n, m, k, r)


def predicted_ex_con(n: int, k: int, m: int, r: int) -> int:
    """Predicted maximum K_r count over connected graphs (large n)."""
    TheoremParams(k, m, r)
    return h_value(n, m, k, r)


def predicted_ex(n: int, k: int, m: int, r: int) -> tuple[int, bool]:
    """Predicted maximum K_r count without connectivity.

    Case1 returns the construction value (exact for large n); Case2
    returns the density upper bound, exact only on the divisibility
    lattice (k-1) | n.
    """
    case = threshold_case(k, m, r)
    if case.tag == "Case1":
        return h_value(n, m, k, r), True
    per = turan_cliques(k - 1, m - 1, r)
    return n * per // (k - 1), n % (k - 1) == 0


def katona_value(n: int, k: int, m: int) -> int:
    """delta_k * n + t(delta_k, m-2) - delta_k^2."""
    if k <= m:
        raise ParameterError("need k > m")
    dk = delta_k(k)
    return dk * n + turan_edges(dk, m - 2) - dk * dk


def luo_value(n: int, k: int, r: int) -> int:
    """Maximum K_r count over connected P_k-free graphs on n vertices.

    Evaluates both extremal candidates: the hub graph K_1 joined to
    (K_{k-3} u I_{n-k+2}), and the m = k instance of the three-case
    construction.
    """
    if k < 4 or n < k:
        raise ParameterError("need n >= k >= 4")
    if r < 0:
        raise ParameterError("r must be nonnegative")

    def n_inner(rr: int) -> int:
        # K_{k-3} u I_{n-k+2}
        if rr < 0:
            return 0
        if rr == 0:
            return 1
        if rr == 1:
            return n - 1
        return _nch(k - 3, rr)

    hub = n_inner(r) + n_inner(r - 1)
    return max(hub, _h_count(n, k, k, r))

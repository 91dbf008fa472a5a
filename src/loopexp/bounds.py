"""Bounds on polymer activities, subgraph counts, containment probabilities,
and the large-n exponent governing their product.

Degree profiles here are the tail (n_2, ..., n_d): counts of touched nodes of
induced degree i for i = 2..d.  Loops and polymers have no degree-1 nodes, so
the tail is the whole profile.  Constants alpha_d in (0,1), alpha_i > 1 and C
are empirical configuration values, defaulting to 0.9, 1.2, and 1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._csvio import write_csv
from ._layout import check_budget

__all__ = [
    "ALPHA_D_DEFAULT",
    "ALPHA_MID_DEFAULT",
    "activity_bound",
    "expander_activity_bound",
    "mackay_probability_bound",
    "subgraph_count_bound",
    "DegreeProfileVector",
    "exponent_function",
    "ScanResult",
    "scan_exponent",
    "tail_probability_bound",
    "activity_bound_violations",
]

ALPHA_D_DEFAULT = 0.9
ALPHA_MID_DEFAULT = 1.2


def _xlogy(x, y):
    """x ln y elementwise, with 0 wherever x is 0 (so 0 ln 0 = 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.equal(x, 0), 0.0, np.multiply(x, np.log(y)))


def _log_falling(m: float, k: float) -> float:
    """ln [m]_k = ln m(m-1)...(m-k+1)."""
    if k == 0:
        return 0.0
    if m - k + 1 <= 0:
        raise ValueError(f"falling factorial [m]_k with m={m}, k={k} vanishes")
    return math.lgamma(m + 1) - math.lgamma(m - k + 1)


def _check_bound_args(h: float, alpha_d: float, alpha_mid: float) -> None:
    """ValueError unless the bound's formula takes the field ``h`` and its
    constants, NaN refused: h >= 0, alpha_d in (0, 1] and alpha_i > 1.
    The large-n exponent takes the limit alpha_d = 1; a bound on measured
    activities refuses it as well (``_check_measured_args``)."""
    if not 0 < alpha_d <= 1:
        raise ValueError("alpha_d must lie in (0, 1]")
    if not alpha_mid > 1:
        raise ValueError("alpha_i must exceed 1")
    if not h >= 0:
        raise ValueError(f"h must be nonnegative, got {h}")


def _check_measured_args(h: float, alpha_d: float, alpha_mid: float) -> None:
    """``_check_bound_args``, with alpha_d in (0, 1)."""
    _check_bound_args(h, alpha_d, alpha_mid)
    if alpha_d == 1:
        raise ValueError("alpha_d must lie in (0, 1)")


def _check_profile(profile: Sequence[int]) -> None:
    """ValueError naming the first entry of a profile (n_2, ..., n_d) that
    is not a nonnegative integer (a Python or numpy integer)."""
    for i, n_i in enumerate(profile, start=2):
        if not (isinstance(n_i, numbers.Integral) and n_i >= 0):
            raise ValueError(f"profile entry n_{i}={n_i} is not a "
                             f"nonnegative integer")


def activity_bound(profile: Sequence[int], h: float,
                   alpha_d: float = ALPHA_D_DEFAULT,
                   alpha_mid: float = ALPHA_MID_DEFAULT,
                   log: bool = False) -> float:
    """(1 - alpha_d (d/2) h^2)^{n_d} * prod_{i=2}^{d-1} (alpha_i h^{d-i})^{n_i}.

    ``profile`` is (n_2, ..., n_d), so d = len(profile) + 1.
    """
    _check_profile(profile)
    _check_measured_args(h, alpha_d, alpha_mid)
    logval = _log_activity_bounds(np.array([profile]), h, alpha_d,
                                  alpha_mid)
    # np.exp, as in activity_bound_violations, so the two agree to the bit
    return float((logval if log else np.exp(logval))[0])


def _top_base(h: float, d: int, alpha_d: float) -> float:
    """1 - alpha_d (d/2) h^2, the base of the bound's top-degree factor."""
    return 1.0 - alpha_d * (d / 2.0) * h * h


def _bound_applies(h: float, d: int, alpha_d: float,
                   alpha_mid: float) -> bool:
    """Whether the activity bound of a degree-d host takes the field ``h``:
    False when h is too large for it (the top-degree base is negative,
    which ``activity_bound_violations`` refuses), ValueError for a refused
    h or constant (``_check_measured_args``)."""
    _check_measured_args(h, alpha_d, alpha_mid)
    return _top_base(h, d, alpha_d) >= 0


def _log_activity_bounds(profiles: np.ndarray, h: float, alpha_d: float,
                         alpha_mid: float) -> np.ndarray:
    """ln of the activity bound of every row (n_2, ..., n_d) of ``profiles``:
    n_d ln base_d, then n_i ln(alpha_mid h^{d-i}) for i = 2..d-1, 0 ln 0 =
    0.  ValueError when the base 1 - alpha_d (d/2) h^2 is negative."""
    d = profiles.shape[1] + 1
    base_d = _top_base(h, d, alpha_d)
    if base_d < 0:
        raise ValueError(f"h={h} too large: top-degree base is negative")
    out = _xlogy(profiles[:, -1], base_d)
    for i in range(2, d):
        out = out + _xlogy(profiles[:, i - 2], alpha_mid * h ** (d - i))
    return out


def expander_activity_bound(size: int, h: float) -> float:
    """(2h)^{0.18 |gamma|} for a polymer touching ``size`` nodes."""
    if not 0 < h <= 0.5:
        raise ValueError("h must lie in (0, 1/2]")
    if not size >= 0:
        raise ValueError(f"size must be nonnegative, got {size}")
    return (2.0 * h) ** (0.18 * size)


def mackay_probability_bound(profile: Sequence[int], n: int, d: int,
                             log: bool = False) -> float:
    """Upper bound on P[a fixed subgraph with this profile sits inside Gamma].

    prod_i [d]_i^{n_i} / (2^{s/2} [nd/2 - 2d^2]_{s/2}) with s = sum i*n_i and
    [m]_k the falling factorial.  Valid while s/2 + 2d^2 <= nd/2.
    """
    _check_profile(profile)
    if len(profile) != d - 1:
        raise ValueError(f"profile must be (n_2..n_d), length {d - 1}")
    s = sum((idx + 2) * n_i for idx, n_i in enumerate(profile))
    m = n * d / 2.0 - 2.0 * d * d
    if s / 2.0 + 2.0 * d * d > n * d / 2.0:
        raise ValueError(
            f"validity condition violated: s/2 + 2d^2 = {s / 2 + 2 * d * d} "
            f"> nd/2 = {n * d / 2}")
    logval = -0.5 * s * math.log(2.0) - _log_falling(m, s / 2.0)
    for idx, n_i in enumerate(profile):
        i = idx + 2
        logval += n_i * _log_falling(d, i)
    return logval if log else math.exp(logval)


def subgraph_count_bound(profile: Sequence[int], n: int,
                         log: bool = False) -> float:
    """Upper estimate of the number of subgraphs of K_n with this profile.

    n!/((n-N)! prod n_i!) * s!/((s/2)! 2^{s/2} prod (i!)^{n_i}) with
    N = sum n_i and s = sum i*n_i.  Not integral in general.
    """
    _check_profile(profile)
    N = sum(profile)
    if N > n:
        raise ValueError(f"profile places {N} nodes on only {n}")
    s = sum((idx + 2) * n_i for idx, n_i in enumerate(profile))
    logval = math.lgamma(n + 1) - math.lgamma(n - N + 1)
    logval += math.lgamma(s + 1) - math.lgamma(s / 2.0 + 1) \
        - 0.5 * s * math.log(2.0)
    for idx, n_i in enumerate(profile):
        i = idx + 2
        logval -= math.lgamma(n_i + 1) + n_i * math.lgamma(i + 1)
    return logval if log else math.exp(logval)


@dataclass(frozen=True)
class DegreeProfileVector:
    """Rescaled profile x_i = n_i/n for i = 2..d, with model constants.

    ``n`` = None selects the large-n limit (the 2d^2/n correction drops).
    Membership in the simplex Delta requires 1/2 <= sum x_i <= 1.
    """

    x: tuple[float, ...]
    d: int
    h: float
    n: Optional[int] = None
    alpha_d: float = ALPHA_D_DEFAULT
    alpha_mid: float = ALPHA_MID_DEFAULT

    def __post_init__(self):
        if len(self.x) != self.d - 1:
            raise ValueError(f"x must be (x_2..x_d), length {self.d - 1}")
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))


def _exponent_grid(x: np.ndarray, d: int, h: float, n: Optional[int],
                   alpha_d: float, alpha_mid: float,
                   strict: bool = True) -> np.ndarray:
    """Vectorized exponent over rows of x (each row is (x_2..x_d)).

    strict=True raises on infeasible rows (finite-n validity violated);
    strict=False marks them -inf so grid scans skip them.
    """
    X = x.sum(axis=1)
    i_vals = np.arange(2, d + 1)
    s = x @ i_vals
    D = d / 2.0 if n is None else d / 2.0 - 2.0 * d * d / n
    infeasible = D - s / 2.0 < -1e-12
    if np.any(infeasible):
        if strict:
            raise ValueError("profile too heavy: nd/2 - 2d^2 < s/2 "
                             "(logarithm of a negative argument)")
    rem = np.clip(D - s / 2.0, 0.0, None)
    one_minus = np.clip(1.0 - X, 0.0, None)
    # entropy of the node assignment + pairing count + activity decay
    val = -np.sum(_xlogy(x, x), axis=1) - _xlogy(one_minus, one_minus)
    val += x @ np.log([math.comb(d, i) for i in range(2, d + 1)])
    val += _xlogy(s / 2.0, s / 2.0) + _xlogy(rem, rem) - _xlogy(D, D)
    act = _log_activity_bounds(x, h, alpha_d, alpha_mid)
    out = np.asarray(val + act, dtype=np.float64)
    if np.any(infeasible):
        out = np.where(infeasible, -np.inf, out)
    return out


def _check_size(d: int, n: Optional[int]) -> None:
    """ValueError unless ``n`` is None (the large-n limit) or n >= 4d^2/(d
    - 1), with the feasibility test's slack: the lightest profile of
    Delta, x_2 = 1/2, has s/2 = 1/2, which D = d/2 - 2d^2/n must reach."""
    if n is not None and (n <= 0 or d / 2.0 - 2.0 * d * d / n - 0.5 < -1e-12):
        raise ValueError(f"n={n} too small: nd/2 does not cover the 2d^2 term")


def exponent_function(profile: DegreeProfileVector) -> float:
    """Per-node large-n exponent of count * containment * activity bounds.

    Derived by Stirling's formula from the exact falling-factorial bounds;
    0*ln(0) terms are 0.  Raises when h or a constant is refused
    (``_check_bound_args``), n is too small for any profile
    (``_check_size``), x lies outside Delta, or a log argument would be
    negative in finite-n mode.
    """
    _check_bound_args(profile.h, profile.alpha_d, profile.alpha_mid)
    _check_size(profile.d, profile.n)
    x = np.asarray(profile.x, dtype=np.float64)[None, :]
    if np.any(x < -1e-12):
        raise ValueError("x outside Delta: negative component")
    total = float(x.sum())
    if not 0.5 - 1e-12 <= total <= 1.0 + 1e-12:
        raise ValueError(f"x outside Delta: sum {total} not in [1/2, 1]")
    return float(_exponent_grid(np.clip(x, 0.0, None), profile.d, profile.h,
                                profile.n, profile.alpha_d,
                                profile.alpha_mid)[0])


@dataclass(frozen=True)
class ScanResult:
    """Grid scan of the exponent over the simplex Delta."""

    d: int
    h: float
    grid_step: float
    n: Optional[int]
    alpha_d: float
    alpha_mid: float
    points: np.ndarray          # columns x_2..x_d, exponent
    argmax: tuple[float, ...]
    max_value: float
    all_negative: bool

    def write_csv(self, path, meta: Optional[dict] = None) -> None:
        """Rows ``x_2..x_d,exponent`` after ``meta`` and the scan's parameters."""
        params = {"d": self.d, "h": self.h, "grid_step": self.grid_step,
                  "n": self.n,
                  "alpha_d": self.alpha_d, "alpha_mid": self.alpha_mid}
        cols = [f"x_{i}" for i in range(2, self.d + 1)] + ["exponent"]
        write_csv(path, {**(meta or {}), **params}, cols,
                  self.points.tolist())


def scan_exponent(d: int, h: float, grid_step: float,
                  n: Optional[int] = None,
                  alpha_d: float = ALPHA_D_DEFAULT,
                  alpha_mid: float = ALPHA_MID_DEFAULT) -> ScanResult:
    """Evaluate the exponent on a grid over Delta and locate its maximum.

    The verdict reports whether every grid value is strictly negative (the
    small-h claim); larger h may flip it and is reported, not asserted.
    ValueError for d < 2, a grid step outside (0, 0.1], a refused h or
    constant (``_check_bound_args``) or an n too small for any profile
    (``_check_size``), and BudgetError, before the grid is built, when its
    m^(d - 1) points of d - 1 coordinates (m per axis) pass
    ``MAX_ENTRIES`` entries.
    """
    if d < 2:
        raise ValueError(f"d must be at least 2 for a profile (x_2..x_d), "
                         f"got {d}")
    if not 0 < grid_step <= 0.1:
        raise ValueError("grid_step must lie in (0, 0.1]")
    _check_bound_args(h, alpha_d, alpha_mid)
    _check_size(d, n)
    axis = np.arange(0.0, 1.0 + grid_step / 2.0, grid_step)
    check_budget(len(axis) ** (d - 1) * (d - 1),
                 "exponent grid for d={} at step {}", d, grid_step)
    grids = np.meshgrid(*([axis] * (d - 1)), indexing="ij")
    x = np.stack([g.ravel() for g in grids], axis=1)
    total = x.sum(axis=1)
    keep = (total >= 0.5 - 1e-12) & (total <= 1.0 + 1e-12)
    x = x[keep]
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = _exponent_grid(x, d, h, n, alpha_d, alpha_mid, strict=False)
    finite = np.where(np.isfinite(vals), vals, -np.inf)
    best = int(np.argmax(finite))
    points = np.column_stack([x, vals])
    return ScanResult(
        d=d, h=h, grid_step=grid_step, n=n,
        alpha_d=alpha_d, alpha_mid=alpha_mid,
        points=points,
        argmax=tuple(float(v) for v in x[best]),
        max_value=float(vals[best]),
        all_negative=bool(np.all(finite < 0.0)),
    )


def tail_probability_bound(delta: float, h: float, d: int, n: int,
                           C: float = 1.0,
                           alpha_d: float = ALPHA_D_DEFAULT) -> float:
    """(C/delta) exp(-n alpha_d (d/2) h^2): Markov bound on the large-loop tail.

    Often vacuous (>= 1) at desk scale; reported as computed.  ValueError
    unless delta > 0, C > 0, h >= 0 and n >= 1 (NaN refused).
    """
    if not (delta > 0 and C > 0):
        raise ValueError("delta and C must be positive")
    if not h >= 0:
        raise ValueError(f"h must be nonnegative, got {h}")
    if not n >= 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return (C / delta) * math.exp(-n * alpha_d * (d / 2.0) * h * h)


def activity_bound_violations(catalog, activities, h: float,
                              alpha_d: float = ALPHA_D_DEFAULT,
                              alpha_mid: float = ALPHA_MID_DEFAULT,
                              rtol: float = 1e-9):
    """Polymers whose measured |K| exceeds the profile activity bound.

    Returns (polymer index, |K|, bound) triples; callers log or tabulate them
    (the constants are empirical, so violations are data, not failures).
    Bounds and ValueErrors are ``activity_bound``'s, h and the constants
    checked first; an empty catalog: [].
    """
    _check_measured_args(h, alpha_d, alpha_mid)
    measured = np.abs(catalog.activity_vector(activities))
    if not len(measured):
        return []
    bounds = np.exp(_log_activity_bounds(catalog.profiles, h, alpha_d,
                                         alpha_mid))
    bad = np.flatnonzero(measured > bounds * (1.0 + rtol) + 1e-15)
    return [(int(i), float(measured[i]), float(bounds[i]))
            for i in bad.tolist()]

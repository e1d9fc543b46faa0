"""Pullback measures, change of variables, Jacobians, essential index,
Condition N / N^-1.  Exact on finite spaces: the pullback measure assigns
each source vertex the target mass of its image."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._tol import TOL, le
from .certificates import Certificate
from .covering import VertexMap, _check_cap, _check_inside, _fibre_radii, _u_levels
from .spaces import _idx, _vertex_array

__all__ = [
    "PullbackMeasure",
    "JacobianField",
    "pullback_measure",
    "change_of_variables_check",
    "jacobians",
    "area_inequality_check",
    "essential_index",
    "essential_index_profile",
    "condition_N_check",
    "condition_N_inverse_check",
]


@dataclass(frozen=True, eq=False)
class PullbackMeasure:
    """f*nu: per-vertex mass nu(f(x)); total = sum_y N(y,f,X) nu(y)."""

    vm: VertexMap
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)

    def of(self, members) -> float:
        idx = [_idx(self.vm.source, v) for v in members]
        with np.errstate(over="ignore"):  # masses near 1e308 sum to inf
            return float(self.values[idx].sum()) if idx else 0.0

    def total(self) -> float:
        with np.errstate(over="ignore"):  # masses near 1e308 sum to inf
            return float(self.values.sum())


def pullback_measure(vm: VertexMap, nu: Mapping[str, float] | np.ndarray | None = None) -> PullbackMeasure:
    nu_arr = _vertex_array(vm.target, nu)
    return PullbackMeasure(vm=vm, values=nu_arr[vm.f].copy())


def change_of_variables_check(
    vm: VertexMap,
    rho: Mapping[str, float] | np.ndarray,
    nu: Mapping[str, float] | np.ndarray | None = None,
    rel_tol: float = 1e-12,
) -> Certificate:
    """sum_x rho(x) f*nu(x)  ==  sum_y [sum_{x in f^-1(y)} rho(x)] nu(y)."""
    nu_arr = _vertex_array(vm.target, nu)
    rho_arr = _vertex_array(vm.source, rho)
    with np.errstate(over="ignore", invalid="ignore"):  # terms near 1e308 sum to inf
        lhs = float((rho_arr * nu_arr[vm.f]).sum())
        rhs = float((np.bincount(vm.f, rho_arr, vm.target.n) * nu_arr).sum())
    scale = max(abs(lhs), abs(rhs), 1.0)
    diff = 0.0 if lhs == rhs else abs(lhs - rhs)  # sides that overflow to inf are equal
    return Certificate("change_of_variables", diff <= rel_tol * scale, constant=diff / scale,
                       details={"lhs": lhs, "rhs": rhs})


@dataclass(frozen=True, eq=False)
class JacobianField:
    """J_f = d(f*nu)/d(mu) and its reciprocal, as exact vertex ratios.
    ``infinite`` lists the vertices where J_f is infinite, mu = 0 < f*nu."""

    vm: VertexMap
    jac: np.ndarray
    jac_inv: np.ndarray
    infinite: frozenset[str]

    def of(self, vid: str) -> float:
        return float(self.jac[self.vm.source.i(vid)])


def jacobians(
    vm: VertexMap,
    mu: Mapping[str, float] | np.ndarray | None = None,
    nu: Mapping[str, float] | np.ndarray | None = None,
) -> JacobianField:
    mu_arr = _vertex_array(vm.source, mu)
    nu_img = _vertex_array(vm.target, nu)[vm.f]
    jac, inf_j = _ratio_field(nu_img, mu_arr, vm.source.ids)
    jac_inv, _inf = _ratio_field(mu_arr, nu_img, vm.source.ids)
    return JacobianField(vm=vm, jac=jac, jac_inv=jac_inv, infinite=inf_j)


def _ratio_field(num: np.ndarray, den: np.ndarray, ids) -> tuple[np.ndarray, frozenset[str]]:
    """num / den per vertex: 0 where both vanish, infinite (and listed) where
    only the denominator does; a ratio that overflows reads inf, unlisted."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = np.where(den > 0, num / den, np.where(num > 0, np.inf, 0.0))
    return out, frozenset(ids[k] for k in np.flatnonzero(~(den > 0) & (num > 0)))


def area_inequality_check(
    vm: VertexMap,
    rho: Mapping[str, float] | np.ndarray,
    mu: Mapping[str, float] | np.ndarray | None = None,
    nu: Mapping[str, float] | np.ndarray | None = None,
) -> Certificate:
    """sum_x rho J_f mu <= sum_y [sum_{x in f^-1(y)} rho(x)] nu(y), with
    equality (for every rho) exactly when Condition N holds; finite sides
    compare within a relative 1e-12, and an infinite side only equals itself.
    The sum runs over mu > 0, where J_f = f*nu / mu may overflow to inf; such
    a term counts as inf unless rho vanishes there."""
    mu_arr = _vertex_array(vm.source, mu)
    nu_arr = _vertex_array(vm.target, nu)
    rho_arr = _vertex_array(vm.source, rho)
    jf = jacobians(vm, mu_arr, nu_arr)
    with np.errstate(over="ignore", invalid="ignore"):  # terms near 1e308 sum to inf
        lhs_terms = np.where((mu_arr > 0) & (rho_arr != 0), rho_arr * jf.jac * mu_arr, 0.0)
        lhs = float(lhs_terms.sum())
        rhs = float((np.bincount(vm.f, rho_arr, vm.target.n) * nu_arr).sum())
    scale = max(abs(lhs), abs(rhs), 1.0)
    slack = 1e-12 * scale if math.isfinite(scale) else 0.0
    holds = lhs <= rhs + slack
    cond_n = condition_N_check(vm, mu_arr, nu_arr)
    equal = lhs == rhs or abs(lhs - rhs) <= slack  # inf - inf is nan
    consistent = equal or not cond_n.passed
    return Certificate(
        "area_inequality", holds and consistent,
        details={"lhs": lhs, "rhs": rhs, "equality": equal,
                 "condition_N": cond_n.passed},
    )


def _essential_indices(vm: VertexMap, xi: int, nu, radii, level: np.ndarray) -> list[float]:
    """f*nu(U(x, f, r)) / nu(B(f(x), r)) at each radius, from x's level row."""
    nu_arr = _vertex_array(vm.target, nu)
    brow = vm.target.dist[int(vm.f[xi])]
    out = []
    for r in radii:
        denom = float(nu_arr[brow < r - TOL].sum())
        num = float(nu_arr[vm.f[level < r - TOL]].sum())
        out.append((float("inf") if num > 0 else 0.0) if denom <= 0 else num / denom)
    return out


def essential_index(vm: VertexMap, x: int | str, nu=None, r: float | None = None) -> float:
    """f*nu(U(x, f, r)) / nu(B(f(x), r)).  Raises ValueError, as
    ``u_component`` does, when x lies outside its own ball."""
    xi = _idx(vm.source, x)
    if r is None:
        raise ValueError("essential_index needs r > 0")
    _check_inside("essential_index", vm, xi, r)
    return _essential_indices(vm, xi, nu, [r], _u_levels(vm, [xi])[0])[0]


def essential_index_profile(vm: VertexMap, x: int | str, nu=None,
                            cap: float | None = None) -> tuple[float, float, list[tuple[float, float]]]:
    """Max of the essential index over candidate radii not exceeding the cap
    (default: the normal radius at f(x)); returns (value, cap, per-radius).
    A given cap must be at least TOL (ValueError otherwise)."""
    _check_cap("essential_index_profile", cap)
    xi = _idx(vm.source, x)
    if cap is None:  # x's level row comes with its fibre's normal radius
        cap, _rec, fib, level = next(_fibre_radii(vm, [int(vm.f[xi])]))
    else:
        fib, level = [xi], _u_levels(vm, [xi])
    radii = [r for r in vm.target.ball_radii(int(vm.f[xi])) if le(r, cap)]
    rows = list(zip(radii, _essential_indices(vm, xi, nu, radii, level[fib.index(xi)])))
    value = max((v for _r, v in rows), default=1.0)
    return value, cap, rows


def condition_N_check(vm: VertexMap, mu=None, nu=None) -> Certificate:
    """Condition N: null sets map to null sets; at vertex level, no mu-null
    vertex may have a nu-positive image (f*nu << mu)."""
    return _null_set_certificate("condition_N", vm, mu, nu, inverse=False)


def condition_N_inverse_check(vm: VertexMap, mu=None, nu=None) -> Certificate:
    """Condition N^-1: positive sets map to positive sets; no mu-positive
    vertex may map to a nu-null vertex."""
    return _null_set_certificate("condition_N_inverse", vm, mu, nu, inverse=True)


def _null_set_certificate(name: str, vm: VertexMap, mu, nu, inverse: bool) -> Certificate:
    """Violations are vertices null on one side only: mu-null with a
    nu-positive image, or with ``inverse`` the other way round."""
    mu_arr = _vertex_array(vm.source, mu)
    nu_img = _vertex_array(vm.target, nu)[vm.f]
    bad_mask = (mu_arr > 0) & (nu_img <= 0) if inverse else (mu_arr <= 0) & (nu_img > 0)
    bad = np.nonzero(bad_mask)[0]
    witness = vm.source.ids[int(bad[0])] if bad.size else None
    return Certificate(name, bad.size == 0, witness=witness,
                       details={"violations": [vm.source.ids[int(b)] for b in bad]})

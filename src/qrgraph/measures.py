"""Pullback measures, change of variables, Jacobians, essential index,
Condition N / N^-1.  Exact on finite spaces: the pullback measure assigns
each source vertex the target mass of its image."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._tol import TOL, le
from .certificates import Certificate
from .covering import VertexMap, _u_levels, normal_radius
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


@dataclass(frozen=True)
class PullbackMeasure:
    """f*nu: per-vertex mass nu(f(x)); total = sum_y N(y,f,X) nu(y)."""

    vm: VertexMap
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)

    def of(self, members) -> float:
        idx = [_idx(self.vm.source, v) for v in members]
        return float(self.values[idx].sum()) if idx else 0.0

    def total(self) -> float:
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
    lhs = float((rho_arr * nu_arr[vm.f]).sum())
    fiber_sums = np.zeros(vm.target.n)
    np.add.at(fiber_sums, vm.f, rho_arr)
    rhs = float((fiber_sums * nu_arr).sum())
    scale = max(abs(lhs), abs(rhs), 1.0)
    ok = abs(lhs - rhs) <= rel_tol * scale
    return Certificate("change_of_variables", ok, constant=abs(lhs - rhs) / scale,
                       details={"lhs": lhs, "rhs": rhs})


@dataclass(frozen=True)
class JacobianField:
    """J_f = d(f*nu)/d(mu) and its reciprocal, as exact vertex ratios.
    Infinite entries are flagged where the denominator mass vanishes."""

    vm: VertexMap
    jac: np.ndarray
    jac_inv: np.ndarray
    infinite: frozenset[str]
    infinite_inv: frozenset[str]

    def of(self, vid: str) -> float:
        return float(self.jac[self.vm.source.i(vid)])

    def inv_of(self, vid: str) -> float:
        return float(self.jac_inv[self.vm.source.i(vid)])


def jacobians(
    vm: VertexMap,
    mu: Mapping[str, float] | np.ndarray | None = None,
    nu: Mapping[str, float] | np.ndarray | None = None,
) -> JacobianField:
    mu_arr = _vertex_array(vm.source, mu)
    nu_img = _vertex_array(vm.target, nu)[vm.f]
    jac, inf_j = _ratio_field(nu_img, mu_arr, vm.source.ids)
    jac_inv, inf_ji = _ratio_field(mu_arr, nu_img, vm.source.ids)
    return JacobianField(vm=vm, jac=jac, jac_inv=jac_inv, infinite=inf_j, infinite_inv=inf_ji)


def _ratio_field(num: np.ndarray, den: np.ndarray, ids) -> tuple[np.ndarray, frozenset[str]]:
    """num / den per vertex: 0 where both vanish, infinite (and listed) where
    only the denominator does."""
    out = np.zeros(len(num))
    infinite: set[str] = set()
    for k in range(len(num)):
        if den[k] > 0:
            out[k] = num[k] / den[k]
        elif num[k] > 0:
            out[k] = np.inf
            infinite.add(ids[k])
    return out, frozenset(infinite)


def area_inequality_check(
    vm: VertexMap,
    rho: Mapping[str, float] | np.ndarray,
    mu: Mapping[str, float] | np.ndarray | None = None,
    nu: Mapping[str, float] | np.ndarray | None = None,
    rel_tol: float = 1e-12,
) -> Certificate:
    """sum_x rho J_f mu <= sum_y [sum_{x in f^-1(y)} rho(x)] nu(y), with
    equality (for every rho) exactly when Condition N holds."""
    mu_arr = _vertex_array(vm.source, mu)
    nu_arr = _vertex_array(vm.target, nu)
    rho_arr = _vertex_array(vm.source, rho)
    jf = jacobians(vm, mu_arr, nu_arr)
    lhs_terms = np.where(mu_arr > 0, rho_arr * np.where(np.isfinite(jf.jac), jf.jac, 0.0) * mu_arr, 0.0)
    lhs = float(lhs_terms.sum())
    fiber_sums = np.zeros(vm.target.n)
    np.add.at(fiber_sums, vm.f, rho_arr)
    rhs = float((fiber_sums * nu_arr).sum())
    scale = max(abs(lhs), abs(rhs), 1.0)
    holds = lhs <= rhs + rel_tol * scale
    cond_n = condition_N_check(vm, mu_arr, nu_arr)
    equal = abs(lhs - rhs) <= rel_tol * scale
    consistent = equal or not cond_n.passed
    return Certificate(
        "area_inequality", holds and consistent,
        details={"lhs": lhs, "rhs": rhs, "equality": equal,
                 "condition_N": cond_n.passed},
    )


def _essential_indices(vm: VertexMap, xi: int, nu, radii) -> list[float]:
    """f*nu(U(x, f, r)) / nu(B(f(x), r)) at each radius."""
    nu_arr = _vertex_array(vm.target, nu)
    level = _u_levels(vm, [xi])[0]
    brow = vm.target.dist[int(vm.f[xi])]
    out = []
    for r in radii:
        denom = float(nu_arr[brow < r - TOL].sum())
        num = float(nu_arr[vm.f[level < r - TOL]].sum())
        out.append((float("inf") if num > 0 else 0.0) if denom <= 0 else num / denom)
    return out


def essential_index(vm: VertexMap, x: int | str, nu=None, r: float | None = None) -> float:
    """f*nu(U(x, f, r)) / nu(B(f(x), r))."""
    xi = _idx(vm.source, x)
    if r is None or r <= 0:
        raise ValueError("essential_index needs r > 0")
    return _essential_indices(vm, xi, nu, [r])[0]


def essential_index_profile(vm: VertexMap, x: int | str, nu=None,
                            cap: float | None = None) -> tuple[float, float, list[tuple[float, float]]]:
    """Max of the essential index over candidate radii not exceeding the cap
    (default: the normal radius at f(x)); returns (value, cap, per-radius)."""
    xi = _idx(vm.source, x)
    if cap is None:
        cap, _rec = normal_radius(vm, xi)
    radii = [r for r in vm.target.ball_radii(int(vm.f[xi])) if le(r, cap)]
    rows = list(zip(radii, _essential_indices(vm, xi, nu, radii)))
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

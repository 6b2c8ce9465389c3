"""Observables: position distributions, spread, localization, negativity.

Negativity conventions: both bipartitions used here are bounded by 1/2.
A one-line state (one particle, or two confined to the x- or y-line) has
two coin components L and R, and both negativities follow from three
sums, p = sum |L|^2, q = sum |R|^2 and c = sum L conj(R):

* coin/position: N = sqrt(pq - |c|^2).  For a pure state the negativity
  is ((sum_i s_i)^2 - 1)/2 over the singular values s_i of the
  coin-by-position amplitude matrix; its Gram matrix [[p, c], [c*, q]]
  has eigenvalues s_1^2, s_2^2 with product pq - |c|^2 (the two-term
  Schmidt form, Vidal & Werner, PRA 65, 032314, 2002).
* particle/particle: N = |c|.  Tracing out position leaves a coin
  density supported on two basis states; its partial transpose has
  eigenvalues p, q, +|c| and -|c|.

Full-2D states take the particle/particle negativity from the 4x4 partial
transpose of the traced-out coin density (see crossing_coin_density).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .state import DD, DU, LINE_FIELDS, UD, UU, SpinorField1P, TwoParticleField, line_layout

__all__ = [
    "Distribution1D",
    "Distribution2D",
    "NegativityResult",
    "distribution",
    "sigma",
    "ipr",
    "negativity_coin_position",
    "negativity_particle_particle",
    "reduced_particle_density",
    "row_sums",
    "line_sums",
    "check_normalized",
    "line_coin_position",
    "crossing_coin_density",
    "particle_particle_from_density",
]

STATE_NORM_TOL = 1e-8


@dataclass(frozen=True)
class Distribution1D:
    """Per-site probabilities over integer positions."""

    x: np.ndarray
    p: np.ndarray

    def total(self) -> float:
        return float(np.sum(self.p))


@dataclass(frozen=True)
class Distribution2D:
    """Per-site probabilities over a 2D integer lattice, p indexed [x, y]."""

    x: np.ndarray
    y: np.ndarray
    p: np.ndarray

    def total(self) -> float:
        return float(np.sum(self.p))


@dataclass(frozen=True)
class NegativityResult:
    value: float


def distribution(state):
    """Position probability distribution of a walker state.

    One-particle and confined two-particle states give a Distribution1D
    along the active axis; full-2D states give a Distribution2D.
    """
    if isinstance(state, SpinorField1P):
        p = np.abs(state.up) ** 2 + np.abs(state.down) ** 2
        return Distribution1D(state.positions, p)
    if state.confinement == "xline":
        p = np.abs(state.uu) ** 2 + np.abs(state.dd) ** 2
        return Distribution1D(state.positions_x, p)
    if state.confinement == "yline":
        p = np.abs(state.ud) ** 2 + np.abs(state.du) ** 2
        return Distribution1D(state.positions_y, p)
    p = sum(np.abs(c) ** 2 for c in (state.uu, state.ud, state.du, state.dd))
    return Distribution2D(state.positions_x, state.positions_y, p)


def sigma(dist: Distribution1D) -> float:
    """Standard deviation sqrt(<x^2> - <x>^2) of a 1D distribution."""
    if np.ndim(dist.p) != 1:
        raise ValueError("sigma expects a 1D distribution")
    x = dist.x.astype(float)
    mean = float(np.dot(x, dist.p))
    second = float(np.dot(x * x, dist.p))
    var = second - mean * mean
    # variance can go epsilon-negative for a point mass
    return float(np.sqrt(var)) if var > 0.0 else 0.0


def ipr(dist: Distribution1D) -> float:
    """Inverse participation ratio sum_x p(x)^2.

    1 for a point distribution, ~1/support for a uniform one; higher
    means more localized.
    """
    if np.ndim(dist.p) != 1:
        raise ValueError("ipr expects a 1D distribution")
    return float(np.sum(np.asarray(dist.p) ** 2))


def row_sums(values):
    """Sums over the sites of a (sites, rows) array, one per row.

    Each row is summed on its own, pairwise over a contiguous copy, so its
    sum does not depend on the rows beside it.
    """
    return np.add.reduce(np.ascontiguousarray(values.T), axis=1)


def line_sums(lr, li, rr, ri):
    """Row sums (p, q, Re c, Im c) of a batch of one-line states.

    lr, li, rr, ri are the real and imaginary parts of the L and R
    components, site-aligned arrays of shape (sites, rows); p = sum |L|^2,
    q = sum |R|^2 and c = sum L conj(R) over each row.
    """
    p = row_sums(lr * lr + li * li)
    q = row_sums(rr * rr + ri * ri)
    c_re = row_sums(lr * rr + li * ri)
    c_im = row_sums(li * rr - lr * ri)
    return p, q, c_re, c_im


def check_normalized(total):
    """Raise ValueError unless every row total is 1 within STATE_NORM_TOL."""
    drift = np.abs(total - 1.0) > STATE_NORM_TOL
    if drift.any():
        raise ValueError(f"state must be normalized, |amp|^2 sums to {float(total[np.argmax(drift)])!r}")


def line_coin_position(lr, li, rr, ri, p, c_re, c_im):
    """Coin/position negativity sqrt(pq - |c|^2) of each row, from line_sums.

    pq - |c|^2 is evaluated as p |R - (conj(c)/p) L|^2 (R minus its
    projection on L), which keeps full accuracy near product states,
    where the difference of the two products would cancel to noise.
    """
    safe = np.where(p > 0.0, p, 1.0)
    k_re, k_im = c_re / safe, -c_im / safe
    w_re = rr - (k_re * lr - k_im * li)
    w_im = ri - (k_re * li + k_im * lr)
    return np.sqrt(p * row_sums(w_re * w_re + w_im * w_im))


def _state_planes(state):
    """Real and imaginary planes (one row) of a one-line state, None for full 2D."""
    layout = line_layout(state)
    if layout is None:
        return None
    return [part[:, None] for name in LINE_FIELDS[layout]
            for part in (getattr(state, name).real, getattr(state, name).imag)]


def negativity_coin_position(state) -> NegativityResult:
    """Entanglement negativity between coin and position space.

    The state must be a pure, normalized one-line state; the value is the
    closed form sqrt(pq - |c|^2).
    """
    planes = _state_planes(state)
    if planes is None:
        raise ValueError("coin/position bipartition is not supported for full-2D states")
    p, q, c_re, c_im = line_sums(*planes)
    check_normalized(p + q)
    value = float(line_coin_position(*planes, p, c_re, c_im)[0])
    return NegativityResult(value)


def reduced_particle_density(state: TwoParticleField) -> np.ndarray:
    """4x4 density matrix of the two-particle coin space, position traced out."""
    n = 4
    rho = np.zeros((n, n), dtype=np.complex128)
    if state.confinement == "xline":
        comps = {UU: state.uu, DD: state.dd}
    elif state.confinement == "yline":
        comps = {UD: state.ud, DU: state.du}
    else:
        comps = {UU: state.uu, UD: state.ud, DU: state.du, DD: state.dd}
    keys = sorted(comps)
    for i in keys:
        for j in keys:
            rho[i, j] = np.sum(comps[i] * comps[j].conj())
    return rho


def crossing_coin_density(x_planes, x_site, y_planes, y_site) -> np.ndarray:
    """4x4 coin densities of full-2D rows that live on an x and a y line.

    x_planes and y_planes are the site-aligned planes (Re L, Im L, Re R,
    Im R), each of shape (sites, rows), of the x lines (L = uu, R = dd)
    and the y lines (L = du, R = ud), which cross at index x_site of the
    one and y_site of the other.  uu and dd meet ud and du only there, so
    the entries between the two pairs are products of the amplitudes
    there; they vanish when the sites are None (the crossing is empty).
    """
    x_sums, y_sums = line_sums(*x_planes), line_sums(*y_planes)
    rho = np.zeros((len(x_sums[0]), 4, 4), dtype=np.complex128)
    if x_site is not None:
        uu_re, uu_im, dd_re, dd_im = (plane[x_site] for plane in x_planes)
        du_re, du_im, ud_re, ud_im = (plane[y_site] for plane in y_planes)
        at = np.stack([uu_re + 1j * uu_im, ud_re + 1j * ud_im, du_re + 1j * du_im, dd_re + 1j * dd_im], axis=1)
        rho[:] = at[:, :, None] * at[:, None, :].conj()
    for (i, j), (p, q, c_re, c_im) in (((UU, DD), x_sums), ((DU, UD), y_sums)):
        c = c_re + 1j * c_im
        rho[:, i, i], rho[:, j, j], rho[:, i, j], rho[:, j, i] = p, q, c, c.conj()
    return rho


def partial_transpose_second(rho4: np.ndarray) -> np.ndarray:
    """Partial transpose on the second factor of (stacked) 4x4 two-qubit matrices."""
    return rho4.reshape(rho4.shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -1).reshape(rho4.shape)


def particle_particle_from_density(rho4: np.ndarray) -> np.ndarray:
    """Negativity of stacked 4x4 coin densities: the sum of (|lambda| - lambda)/2
    over the eigenvalues of each partial transpose, clipped at 0.  Raises
    ValueError unless every density has unit trace (a normalized state)."""
    check_normalized(np.trace(rho4, axis1=-2, axis2=-1).real)
    lam = np.linalg.eigvalsh(partial_transpose_second(rho4))
    return np.maximum(np.add.reduce((np.abs(lam) - lam) / 2.0, axis=-1), 0.0)


def negativity_particle_particle(state: TwoParticleField) -> NegativityResult:
    """Entanglement negativity between the two walkers.

    Confined states use the closed form |c|.  Full-2D states trace out
    position, partially transpose the second particle, and sum
    (|lambda| - lambda)/2 over the four eigenvalues.
    """
    if isinstance(state, SpinorField1P):
        raise ValueError("particle/particle negativity needs a two-particle state")
    planes = _state_planes(state)
    if planes is not None:
        p, q, c_re, c_im = line_sums(*planes)
        check_normalized(p + q)
        return NegativityResult(float(np.sqrt(c_re * c_re + c_im * c_im)[0]))
    value = particle_particle_from_density(reduced_particle_density(state)[None])[0]
    return NegativityResult(float(value))

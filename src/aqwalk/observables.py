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

Every sum over sites is a dot product per row (np.vecdot: one BLAS ddot on
each row) over a row-major copy, in which each row's values are contiguous:
so a row's sums are the same bits whatever the rows beside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .state import LINES, Field, lines, site_probabilities

__all__ = [
    "Distribution1D",
    "Distribution2D",
    "distribution",
    "sigma",
    "ipr",
    "negativity_coin_position",
    "negativity_particle_particle",
    "reduced_particle_density",
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


def distribution(state):
    """Position probability distribution of a walker state (see site_distribution)."""
    return site_distribution([site_probabilities(left.real, left.imag, right.real, right.imag)[:, 0]
                              for _, left, right in lines(state)])


def site_distribution(p):
    """The distribution of a state from the site_probabilities of each family of its lines.

    One-particle and confined two-particle states give a Distribution1D
    along their line; full-2D states a Distribution2D, zero off the two
    lines and with the x line summed first where they cross.
    """
    axes = [np.arange(-(len(line) // 2), len(line) // 2 + 1) for line in p]
    if len(p) == 1:
        return Distribution1D(axes[0], p[0])
    grid = np.zeros((len(p[0]), len(p[1])))
    grid[:, len(p[1]) // 2] = p[0]
    grid[len(p[0]) // 2, :] += p[1]
    return Distribution2D(*axes, grid)


def sigma(dist: Distribution1D) -> float:
    """Standard deviation sqrt(<x^2> - <x>^2) of a 1D distribution."""
    if np.ndim(dist.p) != 1:
        raise ValueError("sigma expects a 1D distribution")
    x = dist.x.astype(float)
    return float(sigma_rows(np.asarray(dist.p)[None], np.array([x, x * x]))[0])


def ipr(dist: Distribution1D) -> float:
    """Inverse participation ratio sum_x p(x)^2.

    1 for a point distribution, ~1/support for a uniform one; higher
    means more localized.
    """
    if np.ndim(dist.p) != 1:
        raise ValueError("ipr expects a 1D distribution")
    return float(ipr_rows(np.asarray(dist.p)[None])[0])


def sigma_rows(p, positions):
    """Spread sqrt(<x^2> - <x>^2) of each row of p (rows, sites) over positions (x, x * x), shape (2, sites)."""
    mean, var = np.vecdot(p[:, None], positions).T
    var -= mean * mean
    # variance can go epsilon-negative for a point mass
    return np.sqrt(np.maximum(var, 0.0, out=var), out=var)


def ipr_rows(p):
    """Inverse participation ratio sum_x p(x)^2 of each row of p (rows, sites)."""
    return np.vecdot(p, p)


def line_sums(lr, li, rr, ri):
    """Row sums (p, q, Re c, Im c) of a batch of one-line states, and the rows
    they are taken from: (Re L, Im L, Re R, Im R) per row, shape (rows, 4, sites).

    lr, li, rr, ri are the real and imaginary parts of the L and R
    components, site-aligned arrays of shape (sites, rows); p = sum |L|^2,
    q = sum |R|^2 and c = sum L conj(R) over each row.
    """
    v = np.empty((lr.shape[1], 4, lr.shape[0]))
    for i, plane in enumerate((lr, li, rr, ri)):
        v[:, i] = plane.T
    left, right = v[:, :2].reshape(-1, 2 * v.shape[2]), v[:, 2:].reshape(-1, 2 * v.shape[2])
    return (np.vecdot(left, left), np.vecdot(right, right), np.vecdot(left, right),
            np.vecdot(v[:, 1], v[:, 2]) - np.vecdot(v[:, 0], v[:, 3]), v)


def check_normalized(total):
    """Raise ValueError unless every row total is 1 within STATE_NORM_TOL; the
    error's `row` is the first failing row, and it survives pickling."""
    drift = np.abs(total - 1.0) > STATE_NORM_TOL
    if drift.any():
        exc = ValueError(f"state must be normalized, |amp|^2 sums to {float(total[np.argmax(drift)])!r}")
        exc.row = int(np.argmax(drift))
        raise exc


def line_observables(keys, lr, li, rr, ri, positions=None) -> dict:
    """The observables named in keys (sigma, ipr and the two negativities) of
    a batch of one-line states, one value per row.

    lr, li, rr, ri are the planes of L and R, of shape (sites, rows);
    positions holds the positions x of the sites and their squares, shape
    (2, sites), and is read only for sigma.  The negativities need a
    normalized state: ValueError otherwise.
    """
    out = {}
    if "sigma" in keys or "ipr" in keys:
        p = np.ascontiguousarray(site_probabilities(lr, li, rr, ri).T)
        if "sigma" in keys:
            out["sigma"] = sigma_rows(p, positions)
        if "ipr" in keys:
            out["ipr"] = ipr_rows(p)
    if "negativity_coin_position" in keys or "negativity_particle_particle" in keys:
        p, q, c_re, c_im, v = line_sums(lr, li, rr, ri)
        check_normalized(p + q)
        if "negativity_coin_position" in keys:
            # sqrt(pq - |c|^2) as sqrt(p |R - (conj(c)/p) L|^2), R minus its projection on L: this keeps
            # full accuracy near product states, where the difference of the products cancels to noise
            safe = np.where(p > 0.0, p, 1.0)[:, None]
            k_re, k_im = c_re[:, None] / safe, -c_im[:, None] / safe
            lr, li, rr, ri = v.transpose(1, 0, 2)
            w = np.concatenate([rr - (k_re * lr - k_im * li), ri - (k_re * li + k_im * lr)], axis=1)
            out["negativity_coin_position"] = np.sqrt(p * np.vecdot(w, w))
        if "negativity_particle_particle" in keys:
            out["negativity_particle_particle"] = np.sqrt(c_re * c_re + c_im * c_im)
    return out


def _line_value(state, key: str) -> float:
    """The observable named key of a one-line state, from line_observables."""
    (_, left, right), = lines(state)
    return float(line_observables((key,), left.real, left.imag, right.real, right.imag)[key][0])


def negativity_coin_position(state) -> float:
    """Entanglement negativity between coin and position space.

    The state must be a pure, normalized one-line state; the value is the
    closed form sqrt(pq - |c|^2).
    """
    if state.confinement not in LINES:
        raise ValueError("coin/position bipartition is not supported for full-2D states")
    return _line_value(state, "negativity_coin_position")


def reduced_particle_density(state: Field) -> np.ndarray:
    """4x4 density matrix of the two-particle coin space, position traced out."""
    planes = [(name, (left.real, left.imag, right.real, right.imag)) for name, left, right in lines(state)]
    # the two lines of a full-2D field cross at the origin, the middle site of each
    site = len(state.components["uu"]) // 2 if state.confinement == "full2d" else None
    return crossing_coin_density(planes, site)[0]


def crossing_coin_density(line_planes, site) -> np.ndarray:
    """4x4 coin densities, position traced out, of rows made of the given lines.

    line_planes holds (layout, planes) per family of lines present, layout a key
    of LINES and planes its site-aligned (Re L, Im L, Re R, Im R), each of
    shape (sites, rows).  A full-2D row is an x line (L = uu, R = dd) and a
    y line (L = du, R = ud), which meet only at index `site` of each, so the
    entries between the two pairs are products of the amplitudes there;
    they vanish when site is None (one line, or an empty crossing).
    """
    rows = line_planes[0][1][0].shape[1]
    rho = np.zeros((rows, 4, 4), dtype=np.complex128)
    if site is not None:
        at = np.zeros((rows, 4), dtype=np.complex128)
        for name, planes in line_planes:
            l_re, l_im, r_re, r_im = (plane[site] for plane in planes)
            at[:, LINES[name].slots] = np.stack([l_re + 1j * l_im, r_re + 1j * r_im], axis=1)
        rho[:] = at[:, :, None] * at[:, None, :].conj()
    for name, planes in line_planes:
        i, j = LINES[name].slots
        p, q, c_re, c_im, _ = line_sums(*planes)
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


def negativity_particle_particle(state: Field) -> float:
    """Entanglement negativity between the two walkers.

    Confined states use the closed form |c|.  Full-2D states trace out
    position, partially transpose the second particle, and sum
    (|lambda| - lambda)/2 over the four eigenvalues.
    """
    if state.confinement == "1p":
        raise ValueError("particle/particle negativity needs a two-particle state")
    if state.confinement in LINES:
        return _line_value(state, "negativity_particle_particle")
    return float(particle_particle_from_density(reduced_particle_density(state)[None])[0])

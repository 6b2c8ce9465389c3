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

from .state import LINES, SpinorField1P, TwoParticleField, lines, probabilities, site_probabilities

__all__ = [
    "Distribution1D",
    "Distribution2D",
    "distribution",
    "sigma",
    "ipr",
    "negativity_coin_position",
    "negativity_particle_particle",
    "reduced_particle_density",
    "row_sums",
    "sigma_rows",
    "ipr_rows",
    "line_sums",
    "check_normalized",
    "line_observables",
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


def distribution(state):
    """Position probability distribution of a walker state.

    One-particle and confined two-particle states give a Distribution1D
    along the active axis; full-2D states give a Distribution2D.
    """
    p = probabilities(state)
    kind = Distribution1D if p.ndim == 1 else Distribution2D
    return kind(*(np.arange(-(n // 2), n // 2 + 1) for n in p.shape), p)


def sigma(dist: Distribution1D) -> float:
    """Standard deviation sqrt(<x^2> - <x>^2) of a 1D distribution."""
    if np.ndim(dist.p) != 1:
        raise ValueError("sigma expects a 1D distribution")
    return float(sigma_rows(dist.x.astype(float)[:, None], np.asarray(dist.p)[:, None])[0])


def ipr(dist: Distribution1D) -> float:
    """Inverse participation ratio sum_x p(x)^2.

    1 for a point distribution, ~1/support for a uniform one; higher
    means more localized.
    """
    if np.ndim(dist.p) != 1:
        raise ValueError("ipr expects a 1D distribution")
    return float(ipr_rows(np.asarray(dist.p)[:, None])[0])


def row_sums(values):
    """Sums over the sites of a (sites, rows) array, one per row.

    Each row is summed on its own, pairwise over a contiguous copy, so its
    sum does not depend on the rows beside it.
    """
    return np.add.reduce(np.ascontiguousarray(values.T), axis=1)


def sigma_rows(x, p):
    """Spread sqrt(<x^2> - <x>^2) of each row of p (sites, rows) over positions x (sites, 1)."""
    mean = row_sums(p * x)
    var = row_sums(p * (x * x))
    var -= mean * mean
    # variance can go epsilon-negative for a point mass
    return np.sqrt(np.maximum(var, 0.0, out=var), out=var)


def ipr_rows(p):
    """Inverse participation ratio sum_x p(x)^2 of each row of p (sites, rows)."""
    return row_sums(p * p)


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


def line_observables(keys, lr, li, rr, ri, x=None) -> dict:
    """The observables named in keys (sigma, ipr and the two negativities) of
    a batch of one-line states, one value per row.

    lr, li, rr, ri are the planes of L and R, of shape (sites, rows); x holds
    the positions of the sites, shape (sites, 1), and is read only for sigma.
    The negativities need a normalized state: ValueError otherwise.
    """
    out = {}
    if "sigma" in keys or "ipr" in keys:
        p = site_probabilities(lr, li, rr, ri)
        if "sigma" in keys:
            out["sigma"] = sigma_rows(x, p)
        if "ipr" in keys:
            out["ipr"] = ipr_rows(p)
    if "negativity_coin_position" in keys or "negativity_particle_particle" in keys:
        p, q, c_re, c_im = line_sums(lr, li, rr, ri)
        check_normalized(p + q)
        if "negativity_coin_position" in keys:
            # sqrt(pq - |c|^2) as sqrt(p |R - (conj(c)/p) L|^2), R minus its projection on L: this keeps
            # full accuracy near product states, where the difference of the products cancels to noise
            safe = np.where(p > 0.0, p, 1.0)
            k_re, k_im = c_re / safe, -c_im / safe
            w_re = rr - (k_re * lr - k_im * li)
            w_im = ri - (k_re * li + k_im * lr)
            out["negativity_coin_position"] = np.sqrt(p * row_sums(w_re * w_re + w_im * w_im))
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


def reduced_particle_density(state: TwoParticleField) -> np.ndarray:
    """4x4 density matrix of the two-particle coin space, position traced out."""
    planes = [(name, (left.real, left.imag, right.real, right.imag)) for name, left, right in lines(state)]
    # the two lines of a full-2D field cross at the origin, index T of each
    return crossing_coin_density(planes, state.half_width_x if state.confinement == "full2d" else None)[0]


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
        p, q, c_re, c_im = line_sums(*planes)
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


def negativity_particle_particle(state: TwoParticleField) -> float:
    """Entanglement negativity between the two walkers.

    Confined states use the closed form |c|.  Full-2D states trace out
    position, partially transpose the second particle, and sum
    (|lambda| - lambda)/2 over the four eigenvalues.
    """
    if isinstance(state, SpinorField1P):
        raise ValueError("particle/particle negativity needs a two-particle state")
    if state.confinement in LINES:
        return _line_value(state, "negativity_particle_particle")
    return float(particle_particle_from_density(reduced_particle_density(state)[None])[0])

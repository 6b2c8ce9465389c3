"""Observables: position distributions, spread, localization, negativity.

A state is a dict from the key in specs.LINES of each family of its lines
("1p", "xline" or "yline"; a full-2D state has both "xline" and "yline")
to that family's planes (L, R) x (Re, Im) x slot, shape (2, 2, T + 1):
one row of evolve.run_walk_batch's planes, the walk's light cone at time
T.  Slot k holds the site x = 2k - T, so x = 0 is slot T / 2 at even T and
no slot at odd T (see cone_origin), and every other site of [-T, T] holds
zero (see site_distribution).  L is planes[0, 0] + 1j * planes[0, 1].

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

import numpy as np

from .specs import LINES

__all__ = [
    "distribution",
    "sigma",
    "ipr",
    "negativity_coin_position",
    "negativity_particle_particle",
    "reduced_particle_density",
]

STATE_NORM_TOL = 1e-8


def cone_origin(t: int):
    """The slot of x = 0 in the cone of time t, whose slot k is the site 2k - t: t / 2, None at odd t."""
    return None if t % 2 else t // 2


def lines(state):
    """The lines (family, planes (Re L, Im L, Re R, Im R), origin) of a state, x before y,
    each plane of shape (slots, 1): the lines observe takes."""
    return [(name, state[name].reshape(4, -1, 1), cone_origin(state[name].shape[-1] - 1))
            for name in LINES if name in state]


def site_probabilities(lr, li, rr, ri):
    """|L|^2 + |R|^2 per site, summed plane by plane in this order: the line
    kernel and distribution both take |psi|^2 from here, so they agree bitwise."""
    p, square = np.square(lr), np.empty_like(lr)
    for plane in (li, rr, ri):
        p += np.square(plane, out=square)
    return p


def distribution(state) -> np.ndarray:
    """Position distribution of a state (planes, see above): site_distribution's array."""
    return site_distribution([state[name][..., None] for name in LINES if name in state])[0]


def site_distribution(planes) -> np.ndarray:
    """The distribution of each row of a batch from each family's planes, (2, 2, T + 1, rows).

    The site_probabilities of the slots land rows first on the even indices
    of [-T, T], slot k on the site 2k - T, and the odd ones hold zero: a
    line's 1D array, the origin its middle site, or a full-2D state's grid
    indexed [x, y], zero off the two lines and with the x line summed first
    where they cross.
    """
    slots, rows = planes[0].shape[2:]
    lattice = np.zeros((rows,) + (2 * slots - 1,) * len(planes))
    even = slice(None, None, 2)
    at = [(..., even)] if len(planes) == 1 else [(..., even, slots - 1), (..., slots - 1, even)]
    for family, line in zip(planes, at):
        lattice[line] += site_probabilities(*family.reshape(4, slots, rows)).T
    return lattice


def sigma(p) -> float:
    """Standard deviation sqrt(<x^2> - <x>^2) of a 1D distribution whose middle site is the origin."""
    if np.ndim(p) != 1:
        raise ValueError("sigma expects a 1D distribution")
    x = np.arange(len(p)) - (len(p) - 1) / 2
    return float(sigma_rows(np.asarray(p)[None], np.array([x, x * x]))[0])


def ipr(p) -> float:
    """Inverse participation ratio sum_x p(x)^2 of a 1D distribution.

    1 for a point distribution, ~1/support for a uniform one; higher
    means more localized.
    """
    if np.ndim(p) != 1:
        raise ValueError("ipr expects a 1D distribution")
    return float(ipr_rows(np.asarray(p)[None])[0])


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
    """Raise ValueError unless every row total is 1 within STATE_NORM_TOL (NaN is not); the
    error's `row` is the first failing row, and it survives pickling."""
    drift = ~(np.abs(total - 1.0) <= STATE_NORM_TOL)
    if drift.any():
        exc = ValueError(f"state must be normalized, |amp|^2 sums to {float(total[np.argmax(drift)])!r}")
        exc.row = int(np.argmax(drift))
        raise exc


def observe(keys, line_planes, positions=None) -> dict:
    """The observables named in keys (sigma, ipr and the two negativities) of a
    batch of rows made of the given lines, one value per row.

    A line is (layout, planes, origin): a key of LINES, the site-aligned
    (Re L, Im L, Re R, Im R), each of shape (sites, rows), and the index of
    site x = 0, None where the line holds no amplitude there.  One line
    gives every key from its three sums; positions, (x, x * x) of its
    sites, is read only for sigma.  Two lines (a full-2D row) give only the
    particle/particle negativity (see crossing_coin_density).  The
    negativities need a normalized state: ValueError otherwise.
    """
    if len(line_planes) == 2:
        return {key: particle_particle_from_density(crossing_coin_density(line_planes)) for key in keys}
    (_, (lr, li, rr, ri), _), = line_planes
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


def negativity_coin_position(state) -> float:
    """Entanglement negativity between coin and position space of a state (planes).

    The state must be a pure, normalized one-line state; the value is the
    closed form sqrt(pq - |c|^2).
    """
    if len(state) != 1:
        raise ValueError("coin/position bipartition is not supported for full-2D states")
    key = "negativity_coin_position"
    return float(observe((key,), lines(state))[key][0])


def reduced_particle_density(state: dict) -> np.ndarray:
    """4x4 density matrix of the two-particle coin space of a state (planes), position traced out."""
    return crossing_coin_density(lines(state))[0]


def crossing_coin_density(line_planes) -> np.ndarray:
    """4x4 coin densities, position traced out, of rows made of the given lines (see observe).

    A full-2D row is an x line (L = uu, R = dd) and a y line (L = du,
    R = ud), which meet only at the origin of each, so the entries between
    the two pairs are products of the amplitudes there; they vanish for one
    line, or where a line's origin is None.
    """
    rows = line_planes[0][1][0].shape[1]
    rho = np.zeros((rows, 4, 4), dtype=np.complex128)
    if len(line_planes) == 2 and None not in [origin for *_, origin in line_planes]:
        at = np.zeros((rows, 4), dtype=np.complex128)
        for name, planes, origin in line_planes:
            l_re, l_im, r_re, r_im = (plane[origin] for plane in planes)
            at[:, LINES[name].slots] = np.stack([l_re + 1j * l_im, r_re + 1j * r_im], axis=1)
        rho[:] = at[:, :, None] * at[:, None, :].conj()
    for name, planes, _ in line_planes:
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


def negativity_particle_particle(state: dict) -> float:
    """Entanglement negativity between the two walkers of a state (planes).

    Confined states use the closed form |c|.  Full-2D states trace out
    position, partially transpose the second particle, and sum
    (|lambda| - lambda)/2 over the four eigenvalues.
    """
    if "1p" in state:
        raise ValueError("particle/particle negativity needs a two-particle state")
    key = "negativity_particle_particle"
    return float(observe((key,), lines(state))[key][0])

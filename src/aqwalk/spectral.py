"""Analytic toolbox: dispersion relations, group velocity, transfer matrices.

The plane-wave modes of the walk obey cosine dispersion relations.  With
the phase angle phi in the combined coin, a line whose components carry
the phase powers (k0, k1) (state.LINES) has

    cos(w + (k0 + k1) phi/2) = cos(th0) cos(k + (k1 - k0) phi/2)

    single walker      (0, 1): cos(w + phi/2) = cos(th0) cos(k + phi/2)
    two walkers, uu/dd (0, 2): cos(w + phi)   = cos(th0) cos(k + phi)
    two walkers, du/ud (1, 1): cos(w + phi)   = cos(th0) cos(k)

At fixed mode frequency w the amplitudes at neighboring sites are related
by a transfer matrix whose determinant has unit modulus (flux
conservation); products of such matrices over a disordered chain give the
Lyapunov exponent and hence the localization length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, SingularParameterError
from .evolve import DisorderSpec, sample_landscape
from .state import LINES, Line

__all__ = [
    "DISPERSION_VARIANTS",
    "LyapunovEstimate",
    "dispersion_omega",
    "group_velocity",
    "transfer_matrix_1p",
    "transfer_matrix_2p",
    "lyapunov_localization_length",
]

DISPERSION_VARIANTS = {"single": LINES["1p"], "two_particle_xline": LINES["xline"],
                       "two_particle_yline": LINES["yline"]}

_SEC_TOL = 1e-12


@dataclass(frozen=True)
class LyapunovEstimate:
    """Transfer-chain growth rate gamma and localization length 1/gamma."""

    gamma: float
    localization_length: float
    half_estimates: tuple[float, float]


def _offsets(line: Line, phi: float) -> tuple[float, float]:
    """(omega offset, kappa offset) of a line's cosine relation: phi ((k0 + k1)/2, (k1 - k0)/2)."""
    k0, k1 = line.powers
    return phi * (k0 + k1) / 2, phi * (k1 - k0) / 2


def dispersion_omega(theta0: float, kappa, phi: float = 0.0, variant: str = "single"):
    """Both mode frequencies omega solving the dispersion relation.

    Returns (omega_plus, omega_minus); kappa may be a scalar or an array.
    """
    if variant not in DISPERSION_VARIANTS:
        raise ValueError(f"unknown dispersion variant {variant!r}; known: {tuple(DISPERSION_VARIANTS)}")
    w_off, k_off = _offsets(DISPERSION_VARIANTS[variant], phi)
    rhs = np.cos(theta0) * np.cos(np.asarray(kappa) + k_off)
    root = np.arccos(np.clip(rhs, -1.0, 1.0))
    return root - w_off, -root - w_off


def group_velocity(theta0: float, kappa, phi: float = 0.0):
    """Signed group velocity d(omega)/d(kappa) of the propagating branch.

    Bounded by cos(theta0) in magnitude.  The expression is singular only
    where cos(theta0) cos(kappa + phi/2) = +-1 (theta0 = 0 with the
    shifted kappa at 0 or pi), which is rejected.
    """
    arg = np.asarray(kappa, dtype=float) + _offsets(LINES["1p"], phi)[1]
    ct = math.cos(theta0)
    denom_sq = 1.0 - (ct * np.cos(arg)) ** 2
    if np.any(denom_sq <= 1e-30):
        raise SingularParameterError(
            "group velocity undefined: cos(theta0) cos(kappa + phi/2) = +-1"
        )
    result = ct * np.sin(arg) / np.sqrt(denom_sq)
    if np.ndim(kappa) == 0:
        return float(result)
    return result


def _check_sec(theta: float):
    if abs(math.cos(theta)) < _SEC_TOL:
        raise SingularParameterError("transfer matrix undefined at theta = pi/2 (sec diverges)")


def _transfer_entries(line: Line, theta: float, phi, omega: float):
    """Entries (a, b, c, d) of the transfer matrix of a line with phase powers (k0, k1),
    [[e^{i w} sec e^{i k0 phi}, -i tan e^{-i (k1 - k0) phi}], [i tan, e^{-i (w + k1 phi)} sec]],
    one per phase if phi is an array.  Powers 0 and 1 of e^{-i phi} take no array power, so
    a single-walker chain costs one complex exponential per site."""
    _check_sec(theta)
    sec, tan = 1.0 / math.cos(theta), math.tan(theta)
    turn = np.exp(-1j * phi)

    def turned(value, k):  # value e^{-i k phi}
        return value if k == 0 else value * (turn if k == 1 else turn ** k)

    k0, k1 = line.powers
    return (turned(np.exp(1j * omega) * sec, -k0), turned(-1j * tan, k1 - k0), 1j * tan,
            turned(np.exp(-1j * omega) * sec, k1))


def transfer_matrix_1p(theta: float, phi: float, omega: float) -> np.ndarray:
    """2x2 transfer matrix of the single-walker chain at frequency omega.

    Propagates the two-component field (up_x, down_{x-1}) from site x to
    x+1.  det = e^{-i phi} exactly.
    """
    return np.reshape(_transfer_entries(LINES["1p"], theta, phi, omega), (2, 2))


def transfer_matrix_2p(theta: float, phi: float, omega: float) -> np.ndarray:
    """4x4 transfer matrix of the confined two-walker chain.

    Couples only the (uu, dd) pair and the (du, ud) pair, each by its
    line's matrix at its coin slots; all entries between the pairs are
    exactly zero.  det = e^{-2i phi} exactly.
    """
    m = np.zeros((4, 4), dtype=np.complex128)
    for line in (LINES["xline"], LINES["yline"]):
        m[np.ix_(line.slots, line.slots)] = np.reshape(_transfer_entries(line, theta, phi, omega), (2, 2))
    return m


# the chain is renormalized every _BLOCK sites, as the per-site loop did, so
# the largest unnormalized product (the overflow envelope) is unchanged
_BLOCK = 16
_SEGMENT = 1 << 14  # sites per streamed segment; a multiple of _BLOCK


def _block_products(phis: np.ndarray, theta: float, omega: float):
    """Yield, a segment at a time, the products of each _BLOCK consecutive
    transfer_matrix_1p(theta, phi, omega) along phis, entry-major (4, blocks).

    A short last block is padded with identities, which multiply exactly.
    """
    for start in range(0, phis.size, _SEGMENT):
        part = phis[start:start + _SEGMENT]
        m = np.empty((4, -(-part.size // _BLOCK) * _BLOCK), dtype=np.complex128)
        m[:, part.size:] = [[1.0], [0.0], [0.0], [1.0]]
        for row, entry in zip(m, _transfer_entries(LINES["1p"], theta, part, omega)):
            row[:part.size] = entry
        for _ in range(_BLOCK.bit_length() - 1):
            a, b, c, d = m[:, 0::2]  # earlier matrix of each pair
            e, f, g, h = m[:, 1::2]  # later matrix, on the left
            m = np.array([e * a + f * c, e * b + f * d, g * a + h * c, g * b + h * d])
        yield m


def lyapunov_localization_length(
    disorder: DisorderSpec,
    theta: float,
    omega: float,
    chain_length: int,
    realization_index: int = 0,
) -> LyapunovEstimate:
    """Lyapunov exponent of the disordered single-walker transfer chain.

    Multiplies chain_length transfer matrices with per-site phases drawn
    by evolve.sample_landscape and accumulates the log norms of the
    propagated vector.  Each run of 16 sites (built in segments of 2^14)
    is multiplied out by a pairwise tree of elementwise 2x2 products, and
    the vector steps over these blocks, renormalized after each with an
    overflow-safe norm (math.hypot), so no theta that transfer_matrix_1p
    accepts overflows.  Blocks never cross the middle of the chain.
    gamma > 0 means envelope decay with localization length 1/gamma; the
    clean chain at an allowed frequency gives gamma -> 0.

    Accuracy: a clean or nearly clean chain at a band edge with theta near
    pi/2 keeps the rounding of its ill-conditioned matrices; at theta = 1.565
    gamma is ~7e-8 from a long-double loop (a per-site loop: ~5e-10).
    Disordered chains (phase width >= 0.5) agree with the loop to ~1e-12.

    Raises NonConvergenceError when the two half-chain estimates disagree
    by more than 1% (relative, with an absolute floor so the clean case
    does not trip the check), and SingularParameterError when a block
    product cancels to zero, as it can within about 1e-8 of pi/2, where
    each matrix is singular to working precision.
    """
    if chain_length < 1000:
        raise ValueError(f"chain_length must be >= 1000, got {chain_length}")
    if disorder.kind == "temporal":
        raise ValueError("transfer chains take spatial disorder only (kind 'none' or 'spatial')")
    _check_sec(theta)

    phis = sample_landscape(disorder, chain_length, realization_index).values
    if phis is None:
        phis = np.zeros(chain_length)

    v0, v1 = complex(math.sqrt(13.0 / 14.0)), 1j / math.sqrt(14.0)  # (1, i/sqrt(13)), normalized
    mid = chain_length // 2
    half_logs = []
    for half in (phis[:mid], phis[mid:]):
        log_sum = 0.0
        for blocks in _block_products(half, theta, omega):
            for a, b, c, d in zip(*blocks.tolist()):
                v0, v1 = a * v0 + b * v1, c * v0 + d * v1
                nrm = math.hypot(abs(v0), abs(v1))
                if nrm == 0.0:
                    raise SingularParameterError(
                        "transfer chain singular to working precision: a 16-site product "
                        "cancelled to zero (theta too close to pi/2 for this omega)"
                    )
                log_sum += math.log(nrm)
                v0, v1 = v0 / nrm, v1 / nrm
        half_logs.append(log_sum)

    gamma = (half_logs[0] + half_logs[1]) / chain_length
    g1 = half_logs[0] / mid
    g2 = half_logs[1] / (chain_length - mid)
    spread = abs(g1 - g2)
    # absolute floor: a clean chain oscillates within a bounded transient,
    # so both halves sit at O(1/L) and must not trip the relative check
    if spread > max(0.01 * abs(gamma), 25.0 / chain_length):
        raise NonConvergenceError(
            f"half-chain estimates differ: {g1:.6g} vs {g2:.6g} (full {gamma:.6g})"
        )
    xi = 1.0 / gamma if gamma > 0 else math.inf
    return LyapunovEstimate(gamma, xi, (g1, g2))

"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written on a different code path from the
package: dense one-step unitaries applied to a flat state vector, loop
based partial transposes, and a hand-rolled golden-section search.  Keep
these slow and obvious.
"""

import math
from dataclasses import dataclass

import numpy as np

from aqwalk.ensemble import EnsembleSummary
from aqwalk.specs import LINES


def dense_step_matrix(nsites, theta, phis=None, powers=(0, 1)):
    """Full 2N x 2N one-step unitary: coin (+ phase) then shift.

    Same convention as the engine: up moves to x-1, down moves to x+1,
    the up and down rows at site x carry e^{i k phi_x} with k taken from
    powers (one particle: (0, 1)).
    """
    n = nsites
    c, s = math.cos(theta), math.sin(theta)
    coin = np.array([[c, -1j * s], [-1j * s, c]])
    b = np.kron(coin, np.eye(n))
    if phis is not None:
        ph = np.broadcast_to(np.asarray(phis, dtype=float), (n,))
        for row, k in enumerate(powers):
            b[row * n:(row + 1) * n, :] = np.exp(1j * k * ph)[:, None] * b[row * n:(row + 1) * n, :]
    shift = np.zeros((2 * n, 2 * n), dtype=complex)
    for x in range(1, n):
        shift[x - 1, x] = 1.0  # up: x -> x-1
    for x in range(0, n - 1):
        shift[n + x + 1, n + x] = 1.0  # down: x -> x+1
    return shift @ b


def evolve_dense(alpha, beta, steps, thetas, phis_per_step=None, powers=(0, 1)):
    """Evolve (alpha, beta) at 0 for `steps` steps with the dense matrix.

    thetas: sequence of per-step angles (length steps).  phis_per_step:
    None, or a sequence of per-step phase inputs (scalar or per-site).
    powers: phase powers of the (up, down) rows, see dense_step_matrix.
    Returns (up, down) arrays over x in [-steps, steps].
    """
    n = 2 * steps + 1
    vec = np.zeros(2 * n, dtype=complex)
    vec[steps] = alpha
    vec[n + steps] = beta
    for t in range(steps):
        phis = None if phis_per_step is None else phis_per_step[t]
        vec = dense_step_matrix(n, thetas[t], phis, powers) @ vec
    return vec[:n], vec[n:]


def dense_step_matrix_2d(nsites, theta, phi=None):
    """Full 4N^2 x 4N^2 one-step unitary of a two-particle field on an N x N grid.

    The coin diag(1, e^{i phi}, e^{i phi}, e^{2i phi}) (cos theta - i sin
    theta sx@sx) acts at every site, then uu moves to x-1, dd to x+1, ud to
    y+1 and du to y-1.  The state vector is indexed [component, x, y] with
    components in the order uu, ud, du, dd; amplitude shifted off the grid
    is dropped.
    """
    n = nsites
    sxx = np.fliplr(np.eye(4))
    coin = math.cos(theta) * np.eye(4) - 1j * math.sin(theta) * sxx
    if phi is not None:
        coin = np.diag(np.exp(1j * phi * np.array([0.0, 1.0, 1.0, 2.0]))) @ coin
    moves = [(-1, 0), (0, 1), (0, -1), (1, 0)]
    shift = np.zeros((4 * n * n, 4 * n * n))
    for k, (dx, dy) in enumerate(moves):
        for x in range(n):
            for y in range(n):
                if 0 <= x + dx < n and 0 <= y + dy < n:
                    shift[(k * n + x + dx) * n + y + dy, (k * n + x) * n + y] = 1.0
    return shift @ np.kron(coin, np.eye(n * n))


def evolve_dense_2d(coin, steps, thetas, phis=None):
    """States of a two-particle walk on the grid [-steps, steps]^2 after each step.

    coin: the four start amplitudes (uu, ud, du, dd) at (0, 0).
    thetas: per-step angles; phis: None or per-step scalar phases.
    Returns a list of steps + 1 arrays of shape (4, N, N), the start first.
    """
    n = 2 * steps + 1
    vec = np.zeros((4, n, n), dtype=complex)
    vec[:, steps, steps] = coin
    states = [vec]
    for t in range(steps):
        step = dense_step_matrix_2d(n, thetas[t], None if phis is None else phis[t])
        states.append((step @ states[-1].ravel()).reshape(4, n, n))
    return states


# phase powers (L, R) of the lines kappa_walk steps: k down spins pick up e^{i k phi}
KAPPA_POWERS = {"1p": (0, 1), "xline": (0, 2)}


def kappa_walk(line, left, right, steps, theta0, a=0.0, phases=None):
    """run_walk's series of a one-line walk from the coin (L, R) = (left, right) at the origin,
    stepped exactly in kappa space.

    line is "1p" (L, R = up, down) or "xline" (uu, dd); phases are the walk's temporal phases, one
    per step, None for the clean walk.  Step t = 1..T applies the coin [[c, -i s], [-i s, c]] at
    theta0 e^{-a t}, multiplies L and R by e^{i k phi_{t-1}} (k from KAPPA_POWERS), and shifts L to
    x - 1 (times e^{i kappa}) and R to x + 1 (times e^{-i kappa}) on the N = 2T + 1 modes
    kappa_j = 2 pi j / N of a ring that the light cone never wraps.  p = sum |L|^2 and
    c = sum L conj(R) follow by Parseval, and the negativities from them: particle/particle |c|,
    coin/position sqrt(p |R - (conj(c)/p) L|^2).  The distribution, sigma and ipr come from the
    inverse FFT.
    Each scalar has T + 1 values, t = 0 first; the distribution is that of time T on [-T, T].
    """
    n = 2 * steps + 1
    hop = np.exp(2j * np.pi * np.arange(n) / n)
    lhat, rhat = np.full(n, complex(left)), np.full(n, complex(right))
    x = np.arange(-steps, steps + 1.0)
    series = {key: np.zeros(steps + 1) for key in
              ("sigma", "ipr", "negativity_coin_position", "negativity_particle_particle")}
    for t in range(steps + 1):
        if t:
            theta = theta0 * math.exp(-a * t)
            c, s = math.cos(theta), math.sin(theta)
            lhat, rhat = c * lhat - 1j * s * rhat, -1j * s * lhat + c * rhat
            if phases is not None:
                k_left, k_right = KAPPA_POWERS[line]
                lhat, rhat = lhat * np.exp(1j * k_left * phases[t - 1]), rhat * np.exp(1j * k_right * phases[t - 1])
            lhat, rhat = lhat * hop, rhat * hop.conj()
        p = np.vdot(lhat, lhat).real / n
        cross = np.vdot(rhat, lhat) / n
        rest = rhat - (cross.conjugate() / p) * lhat if p else rhat
        series["negativity_particle_particle"][t] = abs(cross)
        series["negativity_coin_position"][t] = math.sqrt(p * np.vdot(rest, rest).real / n)
        prob = np.roll(np.abs(np.fft.ifft(lhat)) ** 2 + np.abs(np.fft.ifft(rhat)) ** 2, steps)
        mean = x @ prob
        series["sigma"][t] = math.sqrt(max(x * x @ prob - mean * mean, 0.0))
        series["ipr"][t] = prob @ prob
    series["distribution"] = prob
    return series


def negativity_pt_loops(amp):
    """Negativity of a pure coin-position state via an explicit loop PT."""
    d, n = amp.shape
    dim = d * n
    psi = amp.reshape(dim)
    rho = np.outer(psi, psi.conj())
    rho_pt = np.zeros_like(rho)
    for c1 in range(d):
        for x1 in range(n):
            for c2 in range(d):
                for x2 in range(n):
                    rho_pt[c1 * n + x1, c2 * n + x2] = rho[c1 * n + x2, c2 * n + x1]
    lam = np.linalg.eigvalsh(rho_pt)
    return float(-lam[lam < 0].sum())


def coin_density_loops(uu, ud, du, dd):
    """4x4 two-particle coin density, position traced out by explicit sums.

    Components are same-shape arrays over position (any dimensionality).
    """
    comps = [np.asarray(c).ravel() for c in (uu, ud, du, dd)]
    rho = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            rho[i, j] = np.sum(comps[i] * comps[j].conj())
    return rho


def pp_negativity_loops(uu, ud, du, dd):
    """Particle-particle negativity by explicit tracing and index swaps.

    Components are same-shape arrays over position (any dimensionality).
    """
    rho = coin_density_loops(uu, ud, du, dd)
    # coin index k = 2*a + b with a, b in {0, 1}; transpose particle b
    rho_pt = np.zeros_like(rho)
    for a1 in range(2):
        for b1 in range(2):
            for a2 in range(2):
                for b2 in range(2):
                    rho_pt[2 * a1 + b1, 2 * a2 + b2] = rho[2 * a1 + b2, 2 * a2 + b1]
    lam = np.linalg.eigvalsh(rho_pt)
    return float(-lam[lam < 0].sum())


def front_position(p, tail_mass: float = 0.01) -> int:
    """Rightmost position where the right-tail probability still reaches tail_mass,
    p a distribution over sites centred on the origin.

    Used to measure the ballistic front: front_position / t estimates the
    maximal group velocity of the walk.
    """
    tail = np.cumsum(p[::-1])[::-1]  # tail[i] = sum of p from i to the end
    idx = np.nonzero(tail >= tail_mass)[0]
    if len(idx) == 0:
        raise ValueError("tail_mass exceeds the total probability")
    return int(idx[-1] - len(p) // 2)


# phases entering the dispersion relation cos(omega + w phi) = cos(theta0) cos(kappa + k phi),
# as (w, k) per variant: the one-particle walk and the x and y lines of two particles
DISPERSION_SHIFTS = {"single": (0.5, 0.5), "two_particle_xline": (1.0, 1.0), "two_particle_yline": (1.0, 0.0)}


def dispersion_residual(theta0, kappa, omega, phi=0.0, variant="single"):
    """cos(omega + w phi) - cos(theta0) cos(kappa + k phi); zero on the dispersion curve."""
    w, k = DISPERSION_SHIFTS[variant]
    return math.cos(omega + w * phi) - math.cos(theta0) * math.cos(kappa + k * phi)


def golden_section_max(f, lo, hi, tol=1e-12):
    """Classic golden-section maximizer, returns (x*, f(x*))."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def lyapunov_loop(disorder, theta, omega, chain_length, realization_index=0):
    """Per-site transfer-chain loop: (gamma, (g1, g2), spread, threshold).

    Takes the arguments of lyapunov_localization_length.  Steps the vector
    one matrix at a time and renormalizes every 16 sites and at the end of
    each half, with a math.hypot norm.  spread = |g1 - g2| is compared
    against threshold by the library's rule.
    """
    if disorder.kind == "none":
        phis = np.zeros(chain_length)
    else:
        rng = np.random.default_rng([disorder.seed & ((1 << 64) - 1), realization_index])
        phis = rng.uniform(disorder.phase_min, disorder.phase_max, chain_length)
    sec = 1.0 / math.cos(theta)
    tan = math.tan(theta)
    half = np.exp(-0.5j * phis)
    mats = np.empty((chain_length, 2, 2), dtype=np.complex128)
    mats[:, 0, 0] = half * np.exp(1j * (omega + phis / 2.0)) * sec
    mats[:, 0, 1] = half * (-1j * np.exp(-0.5j * phis) * tan)
    mats[:, 1, 0] = half * (1j * np.exp(0.5j * phis) * tan)
    mats[:, 1, 1] = half * np.exp(-1j * (omega + phis / 2.0)) * sec

    v = np.array([1.0, 1j / math.sqrt(13.0)], dtype=np.complex128)
    v /= math.hypot(*np.abs(v))
    log_sum = 0.0
    half_logs = [0.0, 0.0]
    mid = chain_length // 2
    since_renorm = 0
    for i in range(chain_length):
        v = mats[i] @ v
        since_renorm += 1
        if since_renorm == 16 or i == chain_length - 1 or i == mid - 1:
            nrm = math.hypot(abs(v[0]), abs(v[1]))
            log_sum += math.log(nrm)
            half_logs[0 if i < mid else 1] += math.log(nrm)
            v /= nrm
            since_renorm = 0
    gamma = log_sum / chain_length
    g1 = half_logs[0] / mid
    g2 = half_logs[1] / (chain_length - mid)
    return gamma, (g1, g2), abs(g1 - g2), max(0.01 * abs(gamma), 25.0 / chain_length)


COIN_NORM_TOL = 1e-9


def numpy_coin_rule(coin):
    """InitialState's rule as numpy kept it: (the complex128 vector of a coin it accepts, or None,
    and the |amp|^2 sum it compared with 1, or None where it read no flat vector of length 2 or 4)."""
    try:
        vec = np.asarray(coin, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError):  # ragged, or an entry that is no number
        return None, None
    if vec.shape not in ((2,), (4,)):
        return None, None
    with np.errstate(over="ignore", invalid="ignore"):
        nrm = float(np.sum(np.abs(vec) ** 2))
    return (vec if abs(nrm - 1.0) <= COIN_NORM_TOL else None), nrm


def random_pure_amplitude_matrix(rng, d, n):
    """Haar-ish random normalized amplitude matrix of shape (d, n)."""
    m = rng.normal(size=(d, n)) + 1j * rng.normal(size=(d, n))
    return m / np.linalg.norm(m)


def amplitudes(state):
    """{component: complex array over the lattice [-T, T]} of a walk state (a dict of planes, see
    aqwalk.observables): slot k of a family's T + 1 slots is the site 2k - T, and every other site is 0."""
    out = {}
    for name, planes in state.items():
        for k, component in enumerate(LINES[name].fields):
            out[component] = np.zeros(2 * planes.shape[-1] - 1, dtype=complex)
            out[component][::2] = planes[k, 0] + 1j * planes[k, 1]
    return out


def state_of(families, pairs):
    """The state of a walk on families (keys of LINES) from the complex (L, R) slot arrays of each:
    T + 1 slots each, slot k the site 2k - T."""
    return {name: np.array([[np.real(x), np.imag(x)] for x in pair], dtype=float)
            for name, pair in zip(families, pairs, strict=True)}


def amplitude_matrix(state):
    """Coin-by-position amplitude matrix of a pure one-line walker state.

    Shape (2, N) for one particle, (4, N) for a confined two-particle
    state (coin order uu, ud, du, dd; absent components are zero rows).
    """
    components = amplitudes(state)
    if "1p" in state:
        return np.vstack([components["up"], components["down"]])
    if len(state) == 2:
        raise ValueError("coin/position bipartition is not supported for full-2D states")
    zeros = np.zeros_like(next(iter(components.values())))
    return np.vstack([components.get(name, zeros) for name in ("uu", "ud", "du", "dd")])


@dataclass(frozen=True)
class ConvergenceReport:
    """Comparison of two ensemble summaries of the same walk."""

    max_abs_diff: dict
    frac_steps_within: dict
    flagged: dict

    @property
    def any_flagged(self) -> bool:
        return any(self.flagged.values())


def convergence_report(summary: EnsembleSummary, reference: EnsembleSummary) -> ConvergenceReport:
    """Compare mean curves of an ensemble against a reference ensemble.

    The reference must not be smaller.  For each observable the report
    gives the max absolute difference of the mean curves, the fraction of
    steps where the difference stays within 3x the pooled standard error,
    and a flag raised when more than 5% of steps exceed that band.
    """
    if reference.runs < summary.runs:
        raise ValueError("reference ensemble must have at least as many runs")
    if reference.steps != summary.steps:
        raise ValueError("ensembles must cover the same number of steps")
    max_abs_diff = {}
    frac_within = {}
    flagged = {}
    for key in summary.mean:
        if key not in reference.mean:
            continue
        diff = np.abs(summary.mean[key] - reference.mean[key])
        pooled = 3.0 * np.sqrt(summary.stderr[key] ** 2 + reference.stderr[key] ** 2)
        within = diff <= pooled
        max_abs_diff[key] = float(np.max(diff))
        frac_within[key] = float(np.mean(within))
        flagged[key] = frac_within[key] < 0.95
    return ConvergenceReport(max_abs_diff, frac_within, flagged)


def format_number(value) -> str:
    """One CSV value, formatted on its own: str() of a Python int (bools
    excluded), 17 significant digits of float(value) for anything else."""
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return format(float(value), ".17g")

"""Time evolution under exp(-iHt) and quantitative unitarity checks.

Time is dimensionless. A valid unbroken system conserves the CPT inner
product of evolving states; an asymmetric Hamiltonian forces a weight-matrix
inner product whose value drifts because the weight fails to commute with H.

H is diagonalized once per trace, and the samples of a uniform time grid are
computed with numpy over blocks of TIME_BLOCK times, the product folded into
one fixed bilinear form. A non-finite horizon is a ValueError; a sample that
overflows (large t, or growing modes of a non-Hermitian H) is a
ConvergenceError naming the first such time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import build_weight_matrix, pt_conjugate
from .construct import PTSystem, validate_parity
from .errors import ConvergenceError
from .linalg import DEFAULT_TOL, as_matrix, diagonalize, eig_arrays, mat_exp_times, max_abs

COMMUTATOR_REL_THRESHOLD = 1e-3
# samples evaluated per numpy pass over the time grid: large enough to leave
# no per-step Python work, small enough that a 10^4-step trace does not hold
# whole-grid (steps, D) arrays in memory
TIME_BLOCK = 512


@dataclass(frozen=True)
class EvolutionTrace:
    """Sampled inner product along an evolution, with its sup-norm drift."""

    times: np.ndarray
    inner_products: np.ndarray
    max_drift: float


@dataclass(frozen=True)
class NonunitarityResult:
    """Weight-matrix trace plus the commutator size that explains the drift."""

    trace: EvolutionTrace
    commutator_norm: float
    conclusive: bool


def evolve(sys: PTSystem, state, t: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """exp(-iHt) applied to the state."""
    vec = np.asarray(state, dtype=np.complex128)
    if vec.shape != (sys.dim,):
        raise ValueError("state dimension does not match the system")
    return mat_exp_times(sys.h, -1j * t, tol) @ vec


def _propagator(h: np.ndarray, tol: float):
    """One-time diagonalization H = V diag(w) V^-1; returns apply(state, times).

    apply gives a (len(times), D) array whose rows are exp(-iHt) state, one per
    t; a (k, D) stack of states gives (k, len(times), D) and shares one block
    of phases exp(-iwt) between them.
    """
    w, v, vinv = diagonalize(h, tol)
    vt = v.T
    minus_iw = -1j * w

    def apply(state: np.ndarray, times: np.ndarray) -> np.ndarray:
        coeffs = state @ vinv.T
        phases = np.exp(np.multiply.outer(times, minus_iw))
        return (coeffs[..., None, :] * phases) @ vt

    return apply


def _grid(t_max: float, steps: int) -> np.ndarray:
    if steps < 2:
        raise ValueError("need at least two samples")
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    if t_max < 0.0:
        raise ValueError("t_max must be nonnegative")
    return np.linspace(0.0, t_max, steps)


def _sample(times: np.ndarray, block_values) -> np.ndarray:
    """Fill one complex sample per time, TIME_BLOCK times at a time.

    block_values(block) returns the samples of one block of times. Overflow
    in exp(-iHt) is expected for large t, so it is computed silently and then
    reported as ConvergenceError at the first non-finite sample.
    """
    vals = np.empty(times.shape[0], dtype=np.complex128)
    for lo in range(0, times.shape[0], TIME_BLOCK):
        block = times[lo:lo + TIME_BLOCK]
        with np.errstate(over="ignore", invalid="ignore"):
            got = block_values(block)
        bad = ~np.isfinite(got)
        if bad.any():
            t = float(block[np.argmax(bad)])
            raise ConvergenceError(f"non-finite inner product at t = {t!r}")
        vals[lo:lo + TIME_BLOCK] = got
    return vals


def unitarity_trace(
    sys: PTSystem,
    c,
    a,
    b,
    t_max: float = 10.0,
    steps: int = 101,
    tol: float = DEFAULT_TOL,
    product: str = "cpt",
) -> EvolutionTrace:
    """Sample the CPT (or PT) inner product of two evolving states.

    Both products are conserved for a PT-symmetric H; the CPT one is the
    positive-definite physical norm.
    """
    if product not in ("cpt", "pt"):
        raise ValueError("product must be 'cpt' or 'pt'")
    if product == "cpt" and c is None:
        raise ValueError("the cpt product needs the C operator")
    av = np.asarray(a, dtype=np.complex128)
    bv = np.asarray(b, dtype=np.complex128)
    if av.shape != (sys.dim,) or bv.shape != (sys.dim,):
        raise ValueError("state dimension does not match the system")
    # (a|b) = conj(a)^T P^T b and <a|b> = (C P conj(a))^T b = conj(a)^T P^T C^T b
    form = sys.p.T if product == "pt" else (as_matrix(c) @ sys.p).T
    times = _grid(t_max, steps)
    apply = _propagator(sys.h, tol)
    states = np.stack([av, bv])

    def block_values(block: np.ndarray) -> np.ndarray:
        at, bt = apply(states, block)
        return np.einsum("ti,ti->t", at.conj() @ form, bt)

    vals = _sample(times, block_values)
    drift = float(np.max(np.abs(vals - vals[0])))
    return EvolutionTrace(times=times, inner_products=vals, max_drift=drift)


def nonunitarity_demo(
    h_asym,
    p,
    t_max: float = 10.0,
    steps: int = 101,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> NonunitarityResult:
    """Evolve two random states under a (generally asymmetric) H and sample
    the weight-matrix inner product (a,t| W |b,t).

    The weight W is fixed by demanding the eigenvector basis be orthonormal
    under it, so the sampled product equals (a,0| e^{iHt} W e^{-iHt} |b,0).
    When [W, H] is above threshold the product must drift; below threshold
    (e.g. the symmetric control case, where W coincides with the C operator)
    the result is flagged inconclusive and the drift stays at round-off level.
    """
    h = as_matrix(h_asym)
    pm = validate_parity(p, tol)
    w, v, _ = eig_arrays(h, tol)
    weight = build_weight_matrix([v[:, k] for k in range(h.shape[0])], pm)
    comm = max_abs(weight @ h - h @ weight)
    scale = max_abs(h)
    conclusive = comm > COMMUTATOR_REL_THRESHOLD * max(scale, 1e-300)

    rng = np.random.default_rng(seed)
    a = rng.standard_normal(h.shape[0]) + 1j * rng.standard_normal(h.shape[0])
    b = rng.standard_normal(h.shape[0]) + 1j * rng.standard_normal(h.shape[0])
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)

    times = _grid(t_max, steps)
    apply_ket = _propagator(h, tol)
    # the bra row evolves as (a,t| = (a,0| exp(+iHt); for symmetric H this is
    # the same as PT-conjugating the evolved ket, for asymmetric H it is not
    apply_bra = _propagator(h.T, tol)
    row0 = pt_conjugate(a, pm)

    def block_values(block: np.ndarray) -> np.ndarray:
        return np.einsum("ti,ti->t", apply_bra(row0, -block) @ weight, apply_ket(b, block))

    vals = _sample(times, block_values)
    drift = float(np.max(np.abs(vals - vals[0])))
    trace = EvolutionTrace(times=times, inner_products=vals, max_drift=drift)
    return NonunitarityResult(trace=trace, commutator_norm=float(comm), conclusive=bool(conclusive))

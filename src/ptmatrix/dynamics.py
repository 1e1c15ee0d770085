"""Time evolution under exp(-iHt) and quantitative unitarity checks.

Time is dimensionless. A valid unbroken system conserves the CPT inner
product of evolving states; an asymmetric Hamiltonian forces a weight-matrix
inner product whose value drifts because the weight fails to commute with H.

evolve applies exp(-iHt) to a state and unitarity_trace samples an inner
product of two evolving states; both take the classification of H
(classify_phase) and propagate with its eigenpairs as V diag(exp(-iwt))
V^-1, so H is solved once per system. Only the asymmetric route,
nonunitarity_demo, which has no parity to classify with, solves H itself
(LAPACK zgeev). A trace folds V, V^-1 and the product's matrix into one
D x D Gram matrix and samples a uniform grid from 0. Its phases come from
one table exp(-iw t) over the first TIME_BLOCK times: the block from
times[lo] is that table times exp(-iw times[lo]), so a block costs D
exponentials and one (T, D) @ (D, D) product. Each phase is the product of
at most two directly evaluated exponentials, with no recurrence, so at any
step it differs from exp(-iwt) by about eps |w| t: the round-off that the
argument w t of the direct form already carries. evolve takes arbitrary
times and evaluates exp(-iwt) directly. A non-finite time or horizon is a
ValueError; a state or sample that overflows (large t, or growing modes of
a non-Hermitian H) is a ConvergenceError naming the first such time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construct import validate_parity
from .errors import ConvergenceError
from .linalg import DEFAULT_TOL, as_matrix, eig_arrays, eigvec_inverse, max_abs
from .spectral import SpectralData, pt_apply

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


def evolve(data: SpectralData, state, t) -> np.ndarray:
    """exp(-iHt) applied to the state, for the H that data classifies (see
    classify_phase): V diag(exp(-iwt)) V^-1 state over data's eigenpairs, so
    H is not solved again. A scalar t gives the (D,) state at t; a 1-D array
    of T times gives a (T, D) array, one state per time.

    Raises ValueError for a non-finite time, ExceptionalPointError when
    cond(V) exceeds COND_CAP (eigvec_inverse), and ConvergenceError, naming
    the first such time, for a state that is not finite (w t overflows, or a
    growing mode of a broken H).
    """
    vec = np.asarray(state, dtype=np.complex128)
    if vec.shape != data.w.shape:
        raise ValueError("state dimension does not match the system")
    times = np.asarray(t, dtype=np.float64)
    if not np.isfinite(times).all():
        raise ValueError(f"t must be finite, got {t}")
    alpha = eigvec_inverse(data.v) @ vec
    with np.errstate(over="ignore", invalid="ignore"):
        out = (np.exp(np.multiply.outer(times, -1j * data.w)) * alpha) @ data.v.T
    bad = ~np.isfinite(out).all(axis=-1)
    if bad.any():
        first = float(times.flat[np.argmax(bad)])
        raise ConvergenceError(f"evolved state is not finite at t = {first!r}")
    return out


def _grid(t_max: float, steps: int) -> np.ndarray:
    if steps < 2:
        raise ValueError("need at least two samples")
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    if t_max < 0.0:
        raise ValueError("t_max must be nonnegative")
    return np.linspace(0.0, t_max, steps)


def _sample(times: np.ndarray, rate: np.ndarray, left: np.ndarray, gram: np.ndarray,
            right: np.ndarray, bra_rate: np.ndarray | None = None) -> np.ndarray:
    """The samples bra(t) @ gram @ (exp(t rate) * right) over a uniform grid
    of times from 0, with bra(t) = exp(t bra_rate) * left, or
    conj(exp(t rate) * left) when bra_rate is None.

    Each rate's phases come from one table head = exp(times[:TIME_BLOCK] rate):
    the block from times[lo] is head * exp(times[lo] rate), the product of two
    directly evaluated exponentials, since times[lo + k] = times[lo] + times[k]
    to round-off. Overflow in exp(-iHt) is expected for large t, so it is
    computed silently and reported as ConvergenceError at the first time whose
    sample, or whose phase argument t rate, is not finite, as evaluating
    exp(t rate) directly would report it.
    """
    rates = [rate] if bra_rate is None else [rate, bra_rate]
    # t rate is finite exactly when t times the rate's largest component is
    reach = np.max(np.abs(np.concatenate(rates).view(np.float64)), initial=0.0)
    vals = np.empty(times.shape[0], dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        heads = [np.exp(np.multiply.outer(times[:TIME_BLOCK], r)) for r in rates]
        for lo in range(0, times.shape[0], TIME_BLOCK):
            block = times[lo:lo + TIME_BLOCK]
            phases = [head if lo == 0 else head[:block.shape[0]] * np.exp(times[lo] * r)
                      for head, r in zip(heads, rates)]
            bra = (phases[0] * left).conj() if bra_rate is None else phases[1] * left
            got = np.einsum("tj,tj->t", bra @ gram, phases[0] * right)
            bad = ~(np.isfinite(got) & np.isfinite(block * reach))
            if bad.any():
                t = float(block[np.argmax(bad)])
                raise ConvergenceError(f"non-finite inner product at t = {t!r}")
            vals[lo:lo + TIME_BLOCK] = got
    return vals


def unitarity_trace(
    data: SpectralData,
    p,
    c,
    a,
    b,
    t_max: float = 10.0,
    steps: int = 101,
    product: str = "cpt",
) -> EvolutionTrace:
    """Sample the CPT (or PT) inner product of two states evolving under the
    H that data classifies (see classify_phase), with parity p.

    Both products are conserved for a PT-symmetric H; the CPT one is the
    positive-definite physical norm. The sample at t is conj(E alpha)^T G
    (E beta) with E = diag(exp(-iwt)), alpha = V^-1 a, beta = V^-1 b and the
    Gram matrix G = V^H F V of the product's form F over data's eigenvectors;
    ExceptionalPointError when cond(V) exceeds COND_CAP (eigvec_inverse).
    """
    if product not in ("cpt", "pt"):
        raise ValueError("product must be 'cpt' or 'pt'")
    if product == "cpt" and c is None:
        raise ValueError("the cpt product needs the C operator")
    av = np.asarray(a, dtype=np.complex128)
    bv = np.asarray(b, dtype=np.complex128)
    dim = data.w.shape[0]
    if av.shape != (dim,) or bv.shape != (dim,):
        raise ValueError("state dimension does not match the system")
    pm = as_matrix(p)
    # (a|b) = conj(a)^T P^T b and <a|b> = (C P conj(a))^T b = conj(a)^T P^T C^T b
    form = pm.T if product == "pt" else (as_matrix(c) @ pm).T
    times = _grid(t_max, steps)
    gram = data.v.conj().T @ form @ data.v
    alpha, beta = np.stack([av, bv]) @ eigvec_inverse(data.v).T
    vals = _sample(times, -1j * data.w, alpha, gram, beta)
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
    (e.g. the symmetric control case) the result is flagged inconclusive and
    the drift stays at round-off level.

    W = V B^-1 V^-1 with B = V^H P V the PT Gram matrix of zgeev's
    eigenvectors, so [W, H] = V [B^-1, diag(w)] V^-1 is 0 for a B
    block-diagonal over eigenvalue clusters (the symmetric control case)
    whatever basis a degenerate cluster has; W is C there only with no
    degenerate eigenvalue. With P = P^-1, W = P (V^-1)^H V^-1, and the
    sample's Gram matrix V^-1 W V is V^-1 P (V^-1)^H, so V is inverted once
    (eigvec_inverse): the same result as algebra.build_weight_matrix, whose
    basis P conj(V) has cond(V). tol bounds the relative backward error of
    zgeev's eigenpairs (eig_arrays); a defective H, cond(V) above COND_CAP,
    raises ExceptionalPointError.
    """
    h = as_matrix(h_asym)
    pm = validate_parity(p)
    w, v, _, _ = eig_arrays(h, tol)
    vinv = eigvec_inverse(v)
    inv_rows = pm @ vinv.conj().T  # the inverse of the PT-conjugate rows (P conj V)^T
    weight = inv_rows @ vinv
    comm = max_abs(weight @ h - h @ weight)
    scale = max_abs(h)
    conclusive = comm > COMMUTATOR_REL_THRESHOLD * scale

    rng = np.random.default_rng(seed)
    a = rng.standard_normal(h.shape[0]) + 1j * rng.standard_normal(h.shape[0])
    b = rng.standard_normal(h.shape[0]) + 1j * rng.standard_normal(h.shape[0])
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)

    times = _grid(t_max, steps)
    # the bra row evolves as (a,t| = (a,0| V diag(exp(iwt)) V^-1; for symmetric
    # H this is PT-conjugating the evolved ket, for asymmetric H it is not
    gram, left, right = vinv @ inv_rows, pt_apply(a, pm) @ v, vinv @ b
    vals = _sample(times, -1j * w, left, gram, right, bra_rate=1j * w)
    drift = float(np.max(np.abs(vals - vals[0])))
    trace = EvolutionTrace(times=times, inner_products=vals, max_drift=drift)
    return NonunitarityResult(trace=trace, commutator_norm=float(comm), conclusive=bool(conclusive))

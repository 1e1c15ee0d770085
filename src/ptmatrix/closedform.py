"""Exact closed forms for the two-level PT-symmetric family and the
three-dimensional parity, used as ground truth by the test suite.

The two-level family is parameterized by (r, s, t, phi):

    H = [[r + t cos(phi) - i s sin(phi),  i s cos(phi) + t sin(phi)],
         [i s cos(phi) + t sin(phi),      r - t cos(phi) + i s sin(phi)]]
    P = [[cos(phi), sin(phi)], [sin(phi), -cos(phi)]]

with eigenvalues r +- t cos(alpha), sin(alpha) = s/t: real for s^2 <= t^2
(the unbroken region) and a conjugate pair beyond, coalescing at s^2 = t^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExceptionalPointError


@dataclass(frozen=True)
class TwoByTwoParams:
    """Parameters (r, s, t, phi) of the general two-level system."""

    r: float
    s: float
    t: float
    phi: float

    @property
    def unbroken(self) -> bool:
        return self.s**2 <= self.t**2


@dataclass(frozen=True)
class ThreeByThreeParityParams:
    """Angles (phi, theta) of the general three-dimensional parity."""

    phi: float
    theta: float


def h2(params: TwoByTwoParams) -> np.ndarray:
    """The two-level H; parameters given as arrays broadcast to an (..., 2, 2) stack."""
    r, s, t, phi = params.r, params.s, params.t, params.phi
    cp, sp = np.cos(phi), np.sin(phi)
    off = 1j * s * cp + t * sp
    return _mat2(r + t * cp - 1j * s * sp, off, off, r - t * cp + 1j * s * sp)


def p2(phi) -> np.ndarray:
    """The two-level parity; an array of angles gives an (..., 2, 2) stack."""
    cp, sp = np.cos(phi), np.sin(phi)
    return _mat2(cp, sp, sp, -cp)


def _mat2(a, b, c, d) -> np.ndarray:
    """Complex [[a, b], [c, d]] over the broadcast shape of the entries."""
    a, b, c, d = np.broadcast_arrays(a, b, c, d)
    return np.stack([a, b, c, d], axis=-1).reshape(a.shape + (2, 2)).astype(np.complex128)


def p3(params: ThreeByThreeParityParams) -> np.ndarray:
    phi, theta = params.phi, params.theta
    c, s = np.cos(phi), np.sin(phi)
    m = np.array(
        [
            [c * c - s * s * np.cos(2 * theta), np.sin(2 * phi) * np.cos(theta),
             -s * s * np.sin(2 * theta)],
            [np.sin(2 * phi) * np.cos(theta), -np.cos(2 * phi),
             np.sin(2 * phi) * np.sin(theta)],
            [-s * s * np.sin(2 * theta), np.sin(2 * phi) * np.sin(theta),
             c * c + s * s * np.cos(2 * theta)],
        ]
    )
    return m.astype(np.complex128)


def eig2(params: TwoByTwoParams) -> tuple[complex, complex]:
    """Eigenvalues (plus, minus) = r +- t cos(alpha), sin(alpha) = s/t.

    Past the coalescence point the continuation i sqrt(s^2 - t^2) is used,
    signed so the plus eigenvalue has positive imaginary part. At t = 0 the
    direct closed form r +- sqrt(t^2 - s^2) takes over.
    """
    r, s, t = params.r, params.s, params.t
    if t == 0.0:
        delta = 1j * abs(s)
    elif s * s <= t * t:
        delta = np.sign(t) * np.sqrt(t * t - s * s)
    else:
        delta = 1j * np.sqrt(s * s - t * t)
    return complex(r + delta), complex(r - delta)


def _cos_alpha(params: TwoByTwoParams) -> float:
    r_, s, t = params.r, params.s, params.t
    if t == 0.0 or s * s >= t * t:
        raise ExceptionalPointError(
            "closed-form eigenvectors need s^2 < t^2 (away from coalescence)"
        )
    return float(np.sqrt(1.0 - (s / t) ** 2))


def vec2(params: TwoByTwoParams) -> tuple[np.ndarray, np.ndarray]:
    """PT-phase-fixed eigenvectors (plus, minus) with PT norms +1 and -1.

    Uses the half-angle form, which is the 0/0-free rewrite of the direct
    normalization 1/sqrt(2 (1 -+ cos a) cos a); the two agree up to an
    overall sign.
    """
    ca = _cos_alpha(params)
    alpha = np.arcsin(params.s / params.t)
    ch, sh = np.cos(alpha / 2.0), np.sin(alpha / 2.0)
    cp, sp = np.cos(params.phi / 2.0), np.sin(params.phi / 2.0)
    root = np.sqrt(ca)
    vp = np.array([ch * cp - 1j * sh * sp, ch * sp + 1j * sh * cp]) / root
    vm = np.array([sh * cp - 1j * ch * sp, sh * sp + 1j * ch * cp]) / root
    return vp, vm


def c2(params: TwoByTwoParams) -> np.ndarray:
    """Closed-form C operator of the two-level family; reduces to the parity
    at s = 0 and squares to the identity."""
    ca = _cos_alpha(params)
    sa = params.s / params.t
    cp, sp = np.cos(params.phi), np.sin(params.phi)
    off = sp + 1j * sa * cp
    return (
        np.array(
            [[cp - 1j * sa * sp, off], [off, -cp + 1j * sa * sp]],
            dtype=np.complex128,
        )
        / ca
    )

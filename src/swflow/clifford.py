"""Spin^c fiber algebra: the Clifford generators and the quadratic form sigma(phi).

Spinors carry two complex components on the trailing axis. The four unitary
generators SIGMA[mu], which the Dirac operator applies, map the positive
spinor bundle to the negative one; the bivectors BIVECTORS over PLANES,
B_{mu nu} = -sigma_mu^dag sigma_nu, act on the positive bundle, are
skew-Hermitian, and form a self-dual matrix-valued 2-form. Every choice of
generators is unitarily equivalent, so both arrays are fixed and read-only.
quadratic_form is fiberwise, broadcasting over any leading site axes.
"""

from __future__ import annotations

import numpy as np

from .lattice import PLANES

# standard Hermitian spin matrices, tau1 tau2 = i tau3
_TAU = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)

# sigma_4 = Id, sigma_k = -i tau_k. The -i sign on the spatial generators makes
# the bivectors self-dual for the plane ordering and Hodge star used here (+i
# would land them in the anti-self-dual fibers and kill the quadratic form's
# pairing with F+).
SIGMA = np.empty((4, 2, 2), dtype=complex)
SIGMA[:3] = -1j * _TAU
SIGMA[3] = np.eye(2)
SIGMA.flags.writeable = False

BIVECTORS = np.array([-SIGMA[mu].conj().T @ SIGMA[nu] for mu, nu in PLANES])
BIVECTORS.flags.writeable = False


def quadratic_form(phi: np.ndarray) -> np.ndarray:
    """Quadratic spinor-to-2-form map sigma(phi).

    Components (i/4) <B_{mu nu} phi, phi> on the ordered planes, one product
    of the per-site outer products conj(phi_a) phi_b with the bivectors. Each
    i B is Hermitian, so the values are real (the float imaginary dust is
    dropped), and the output fiber is self-dual with |sigma(phi)|^2 = |phi|^4 / 8.
    """
    if phi.shape[-1] != 2:
        raise ValueError(f"spinor fiber must have 2 components, got {phi.shape[-1]}")
    outer = (np.conj(phi)[..., :, None] * phi[..., None, :]).reshape(-1, 4)
    val = outer @ BIVECTORS.reshape(6, 4).T
    return -0.25 * val.imag.reshape(phi.shape[:-1] + (6,))

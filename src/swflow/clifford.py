"""Spin^c fiber algebra: the Clifford table and the quadratic form sigma(phi).

Spinors carry two complex components on the trailing axis. The four unitary
generators sigma_mu, which the Dirac operator applies, map the positive
spinor bundle to the negative one; the bivectors B_{mu nu} = -sigma_mu^dag
sigma_nu act on the positive bundle, are skew-Hermitian, and form a
self-dual matrix-valued 2-form for the table built by standard_table.
quadratic_form is fiberwise, broadcasting over any leading site axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import PLANES, worst_of

# standard Hermitian spin matrices, tau1 tau2 = i tau3
_TAU = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)


@dataclass(frozen=True)
class CliffordTable:
    """Four 2x2 generators sigma_mu plus the derived plane bivectors.

    The constructor only checks shape; use relation_defect to verify the
    Clifford relations, so deliberately broken tables can still be built
    for negative controls.
    """

    sigma: np.ndarray
    bivectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sig = np.asarray(self.sigma, dtype=complex)
        if sig.shape != (4, 2, 2):
            raise ValueError(f"sigma must have shape (4, 2, 2), got {sig.shape}")
        biv = np.empty((6, 2, 2), dtype=complex)
        for i, (mu, nu) in enumerate(PLANES):
            biv[i] = -sig[mu].conj().T @ sig[nu]
        object.__setattr__(self, "sigma", sig)
        object.__setattr__(self, "bivectors", biv)


def standard_table() -> CliffordTable:
    """Reference table: sigma_4 = Id, sigma_k = -i tau_k.

    The -i sign on the spatial generators makes the bivectors self-dual for
    the plane ordering and Hodge star used here (+i would land them in the
    anti-self-dual fibers and kill the quadratic form's pairing with F+).
    """
    sig = np.empty((4, 2, 2), dtype=complex)
    sig[:3] = -1j * _TAU
    sig[3] = np.eye(2)
    return CliffordTable(sig)


def relation_defect(tbl: CliffordTable) -> float:
    """Worst violation of unitarity and both Clifford anticommutators."""
    sig = tbl.sigma
    eye = np.eye(2)
    worst = 0.0
    for mu in range(4):
        dag = sig[mu].conj().T
        worst = worst_of(worst, float(np.max(np.abs(dag @ sig[mu] - eye))))
        for nu in range(4):
            want = 2.0 * eye if mu == nu else np.zeros((2, 2))
            lhs = dag @ sig[nu] + sig[nu].conj().T @ sig[mu]
            worst = worst_of(worst, float(np.max(np.abs(lhs - want))))
            lhs = sig[mu] @ sig[nu].conj().T + sig[nu] @ dag
            worst = worst_of(worst, float(np.max(np.abs(lhs - want))))
    return worst


def quadratic_form(tbl: CliffordTable, phi: np.ndarray) -> np.ndarray:
    """Quadratic spinor-to-2-form map sigma(phi).

    Components (i/4) <B_{mu nu} phi, phi> on the ordered planes, one product
    of the per-site outer products conj(phi_a) phi_b with the bivectors. Each
    i B is Hermitian, so the values are real (the float imaginary dust is
    dropped), and for the standard table the output fiber is self-dual with
    |sigma(phi)|^2 = |phi|^4 / 8.
    """
    if phi.shape[-1] != 2:
        raise ValueError(f"spinor fiber must have 2 components, got {phi.shape[-1]}")
    outer = (np.conj(phi)[..., :, None] * phi[..., None, :]).reshape(-1, 4)
    val = outer @ tbl.bivectors.reshape(6, 4).T
    return -0.25 * val.imag.reshape(phi.shape[:-1] + (6,))


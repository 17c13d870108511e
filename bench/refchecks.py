"""Closed-form reference checks for the benchmark's results.

Each check is written from the mathematics the solver must satisfy, not from
the solver's own code or today's output: the proven energy floor, the
pointwise minimizer |phi|^2 = -s, the Fourier symbol of the 1-form Hodge
Laplacian, flux quantization of plane sums, gauge invariance under an
independently implemented gauge action, central differences against the
analytic gradient, and the split of the first-order energy into the two
Seiberg-Witten residuals. Every function returns a list of failure messages;
an empty list means the check passed.
"""

from __future__ import annotations

import math

import numpy as np

# storage order of 2-form components, part of the solver's data format
PLANES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _fail(ok: bool, msg: str) -> list[str]:
    return [] if ok else [msg]


def energy_floor(spacing: float, s: np.ndarray) -> float:
    """-(h^4 / 8) sum min(s, 0)^2, the pointwise minimum of the density."""
    neg = np.minimum(np.asarray(s, dtype=float), 0.0)
    return -(spacing**4) * float(np.sum(neg**2)) / 8.0


def check_at_floor(label: str, energy: float, spacing: float, s, tol: float) -> list[str]:
    floor = energy_floor(spacing, s)
    return _fail(
        abs(energy - floor) <= tol,
        f"{label}: energy {energy!r} is {energy - floor:.3e} from the floor {floor!r} (tol {tol:.1e})",
    )


def check_above_floor(label: str, energy: float, spacing: float, s) -> list[str]:
    floor = energy_floor(spacing, s)
    return _fail(
        energy >= floor,
        f"{label}: energy {energy!r} is below the floor {floor!r}",
    )


def check_phi2_matches_s(label: str, phi: np.ndarray, s, tol: float) -> list[str]:
    """|phi(x)|^2 = -s(x) at every site of a minimizer that reaches the floor."""
    phi2 = np.sum(np.abs(np.asarray(phi)) ** 2, axis=-1)
    worst = float(np.max(np.abs(phi2 + np.asarray(s, dtype=float))))
    return _fail(worst <= tol, f"{label}: max ||phi|^2 + s| = {worst:.3e} (tol {tol:.1e})")


def check_nonincreasing(label: str, energies, rel_tol: float = 1e-12) -> list[str]:
    e = np.asarray(energies, dtype=float)
    if e.size < 2:
        return [f"{label}: need at least two energies, got {e.size}"]
    slack = rel_tol * np.maximum(np.abs(e[:-1]), 1.0)
    rises = np.nonzero(e[1:] > e[:-1] + slack)[0]
    return _fail(
        rises.size == 0 and bool(np.all(np.isfinite(e))),
        f"{label}: energy rises after record {rises[:3].tolist()} or is not finite",
    )


def check_close(label: str, value: float, want: float, rel_tol: float) -> list[str]:
    scale = max(abs(want), 1e-300)
    return _fail(
        abs(value - want) <= rel_tol * scale,
        f"{label}: {value!r} differs from {want!r} by {abs(value - want) / scale:.3e} relative (tol {rel_tol:.1e})",
    )


def hodge_gap(dims, spacing: float) -> float:
    """Smallest nonzero eigenvalue of the 1-form Hodge Laplacian on the torus.

    Forward and backward differences commute on the cubic lattice, so the
    Laplacian acts on each component by the scalar symbol
    sum_mu (2 - 2 cos k_mu) / h^2; its smallest nonzero value is one step in
    the longest direction.
    """
    return min((2.0 - 2.0 * math.cos(2.0 * math.pi / n)) / spacing**2 for n in dims)


def check_hodge_constants(label: str, consts, dims, spacing: float, rel_tol: float = 1e-10) -> list[str]:
    """Gap, curl factor sqrt(1 + 1/gap) and radius sqrt(V sum (pi/L)^2)."""
    gap = hodge_gap(dims, spacing)
    volume = float(np.prod(dims)) * spacing**4
    radius = math.sqrt(volume * sum((math.pi / (n * spacing)) ** 2 for n in dims))
    return (
        check_close(f"{label} spectral_gap", consts.spectral_gap, gap, rel_tol)
        + check_close(f"{label} curl_factor", consts.curl_factor, math.sqrt(1.0 + 1.0 / gap), rel_tol)
        + check_close(f"{label} harmonic_radius", consts.harmonic_radius, radius, rel_tol)
    )


def check_plane_sums(label: str, F: np.ndarray, flux, spacing: float, tol: float = 1e-10) -> list[str]:
    """h^2 sum F over every coordinate slice of plane (mu, nu) is 2 pi n_{mu nu}."""
    flux = np.asarray(flux)
    worst = 0.0
    for i, (mu, nu) in enumerate(PLANES):
        sums = spacing**2 * F[..., i].sum(axis=(mu, nu))
        worst = max(worst, float(np.max(np.abs(sums - 2.0 * math.pi * flux[mu, nu]))))
    return _fail(worst <= tol, f"{label}: plane sums miss 2 pi n by {worst:.3e} (tol {tol:.1e})")


def gauge_transform(a: np.ndarray, phi: np.ndarray, spacing: float, zeta: np.ndarray, winding):
    """U(1) gauge action written out from its definition.

    g(x) = exp(i theta(x)) with theta = zeta + 2 pi sum_mu k_mu x_mu / N_mu;
    a(x, mu) gains the forward difference of theta, taken across the wrap so
    that the winding contributes the constant 2 pi k_mu / (N_mu h), and
    phi(x) is multiplied by exp(-i theta(x)).
    """
    dims = zeta.shape
    x = np.indices(dims)
    theta = zeta + sum(2.0 * math.pi * k * x[mu] / dims[mu] for mu, k in enumerate(winding))
    a_new = np.array(a, dtype=float, copy=True)
    for mu in range(4):
        a_new[..., mu] += (np.roll(zeta, -1, axis=mu) - zeta) / spacing
        a_new[..., mu] += 2.0 * math.pi * winding[mu] / (dims[mu] * spacing)
    return a_new, np.exp(-1j * theta)[..., None] * phi


def check_gauge_invariance(label: str, before: float, after: float, rel_tol: float = 1e-10) -> list[str]:
    return check_close(f"{label} gauge invariance", after, before, rel_tol)


def pairing(spacing: float, da, dphi, delta_a, delta_phi) -> float:
    """<da, delta_a> + 2 Re <dphi, delta_phi>, h^4-weighted."""
    h4 = spacing**4
    return h4 * (float(np.sum(da * delta_a)) + 2.0 * float(np.real(np.sum(dphi * np.conj(delta_phi)))))


def check_central_differences(label: str, energy_at, grad_da, grad_dphi, spacing: float,
                              directions, step: float = 1e-5, rel_tol: float = 1e-5) -> list[str]:
    """(E(x + eps d) - E(x - eps d)) / 2 eps against the gradient pairing.

    energy_at(t, d) evaluates the energy at x + t d for d = (delta_a,
    delta_phi); directions is a list of such pairs.
    """
    failures = []
    for j, (delta_a, delta_phi) in enumerate(directions):
        fd = (energy_at(step, (delta_a, delta_phi)) - energy_at(-step, (delta_a, delta_phi))) / (2.0 * step)
        want = pairing(spacing, grad_da, grad_dphi, delta_a, delta_phi)
        err = abs(fd - want) / max(abs(fd), abs(want), 1e-300)
        if not err <= rel_tol:
            failures.append(
                f"{label}: direction {j}: central difference {fd!r} vs gradient {want!r} ({err:.3e} relative, tol {rel_tol:.1e})"
            )
    return failures


def check_residual_split(label: str, first_order: float, r_dirac: float, r_curv: float,
                         rel_tol: float = 1e-10) -> list[str]:
    """The first-order energy is |D phi|^2 + |F+ - sigma(phi)|^2, term by term."""
    return check_close(f"{label} residual split", first_order, r_dirac + r_curv, rel_tol)

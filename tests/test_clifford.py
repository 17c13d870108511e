"""Fiber algebra: Clifford relations, quadratic form, bivector actions."""

import numpy as np
import pytest

from oracles import clifford_mult, clifford_mult_adjoint, gaussian, two_form_action
from swflow.checks import clifford_relation_defect, quadratic_form_norm_identity
from swflow.clifford import BIVECTORS, SIGMA, quadratic_form
from swflow.lattice import PLANES, hodge_star2, selfdual_project


def fiber_inner(u, v):
    # Hermitian product on the spinor fiber, conjugate-linear in the second slot
    return np.sum(u * np.conj(v), axis=-1)


def random_unitary(seed):
    q, r = np.linalg.qr(gaussian((2, 2), seed, complex_=True))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def conjugated_table(w, v):
    return np.einsum("ab,mbc,cd->mad", w, SIGMA, v)


def test_sigma_satisfies_the_clifford_relations():
    assert clifford_relation_defect(SIGMA).measured < 1e-15


def test_e_matrices_square_to_minus_identity():
    # e_mu = [[0, -sigma^dag], [sigma, 0]] on the 4-dim double fiber
    for mu in range(4):
        e = np.zeros((4, 4), dtype=complex)
        e[:2, 2:] = -SIGMA[mu].conj().T
        e[2:, :2] = SIGMA[mu]
        assert np.allclose(e @ e, -np.eye(4), atol=1e-15)


def test_e_matrices_anticommute():
    es = []
    for mu in range(4):
        e = np.zeros((4, 4), dtype=complex)
        e[:2, 2:] = -SIGMA[mu].conj().T
        e[2:, :2] = SIGMA[mu]
        es.append(e)
    for mu in range(4):
        for nu in range(4):
            want = -2.0 * np.eye(4) if mu == nu else 0.0
            assert np.allclose(es[mu] @ es[nu] + es[nu] @ es[mu], want, atol=1e-15)


def test_bivectors_skew_hermitian_and_traceless_off_identity():
    biv = BIVECTORS
    for i in range(6):
        assert np.allclose(biv[i], -biv[i].conj().T, atol=1e-15)


def test_selfdual_plane_bivectors_commute():
    biv = BIVECTORS
    b12, b34 = biv[PLANES.index((0, 1))], biv[PLANES.index((2, 3))]
    assert np.allclose(b12 @ b34 - b34 @ b12, 0.0, atol=1e-15)


def test_bivector_table_is_selfdual():
    # treat the 6 matrices as a matrix-valued 2-form; star must fix it
    biv = BIVECTORS
    starred = np.empty_like(biv)
    flat = np.moveaxis(biv, 0, -1)  # (2,2,6)
    starred = np.moveaxis(hodge_star2(flat), -1, 0)
    assert np.allclose(starred, biv, atol=1e-15)


def test_generators_and_bivectors_are_read_only():
    for table in (SIGMA, BIVECTORS):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            table *= 2.0


def test_relation_defect_flags_corrupted_table():
    sig = SIGMA.copy()
    sig[1] = sig[1] + 0.05
    assert clifford_relation_defect(sig).measured > 0.01


def test_clifford_mult_unitary_and_zero():
    phis = gaussian((50, 2), 1, complex_=True)
    for mu in range(4):
        out = clifford_mult(SIGMA, mu, phis)
        assert np.allclose(
            np.linalg.norm(out, axis=-1), np.linalg.norm(phis, axis=-1)
        )
    assert np.allclose(clifford_mult(SIGMA, 2, np.zeros(2)), 0.0)


def test_clifford_mult_adjoint_is_adjoint():
    phi = gaussian((30, 2), 1, complex_=True)
    psi = gaussian((30, 2), 2, complex_=True)
    for mu in range(4):
        lhs = fiber_inner(clifford_mult(SIGMA, mu, phi), psi)
        rhs = fiber_inner(phi, clifford_mult_adjoint(SIGMA, mu, psi))
        assert np.allclose(lhs, rhs)


def test_polarized_clifford_relation_on_spinors():
    phi = gaussian((40, 2), 1, complex_=True)
    norms2 = np.sum(np.abs(phi) ** 2, axis=-1)
    for mu in range(4):
        for nu in range(4):
            lhs = fiber_inner(
                clifford_mult(SIGMA, mu, phi), clifford_mult(SIGMA, nu, phi)
            ) + fiber_inner(clifford_mult(SIGMA, nu, phi), clifford_mult(SIGMA, mu, phi))
            want = 2.0 * norms2 if mu == nu else 0.0
            assert np.allclose(lhs, want, atol=1e-12)


def test_quadratic_form_real_selfdual_zero():
    phi = gaussian((100, 2), 1, complex_=True)
    s = quadratic_form(phi)
    assert s.dtype.kind == "f"
    norms2 = np.sum(np.abs(phi) ** 2, axis=-1)
    asd = s - selfdual_project(s)
    assert np.all(np.linalg.norm(asd, axis=-1) <= 1e-14 * norms2)
    assert np.allclose(quadratic_form(np.zeros(2)), 0.0)


def test_quadratic_form_norm_identity():
    # |sigma(phi)|^2 = |phi|^4 / 8
    result = quadratic_form_norm_identity((100,), 1, 1)
    assert result.passed, result.line()


def test_quadratic_form_scaling():
    phi = gaussian((20, 2), 1, complex_=True)
    lam = 0.7 - 1.3j
    assert np.allclose(
        quadratic_form(lam * phi), np.abs(lam) ** 2 * quadratic_form(phi)
    )


def test_selfdual_action_hermitian_pairing():
    omegas = selfdual_project(gaussian((25, 6), 1))
    phis, psis = gaussian((25, 2), 2, complex_=True), gaussian((25, 2), 3, complex_=True)
    for omega, phi, psi in zip(omegas, phis, psis):
        val = fiber_inner(1j * two_form_action(omega, phi), phi)
        assert abs(val.imag) < 1e-13 * (1.0 + abs(val))
        # full Hermiticity of i * action
        lhs = fiber_inner(1j * two_form_action(omega, phi), psi)
        rhs = fiber_inner(phi, 1j * two_form_action(omega, psi))
        assert np.allclose(lhs, rhs)


def test_selfdual_action_pairs_with_quadratic_form():
    # i <sum sigma(phi) B phi, phi> = 4 |sigma(phi)|^2 = |phi|^4 / 2
    phi = gaussian((100, 2), 1, complex_=True)
    s = quadratic_form(phi)
    val = fiber_inner(1j * two_form_action(s, phi), phi)
    assert np.allclose(val.imag, 0.0, atol=1e-12)
    assert np.allclose(val.real, 4.0 * np.sum(s**2, axis=-1), rtol=1e-12)
    assert np.allclose(
        val.real, np.sum(np.abs(phi) ** 2, axis=-1) ** 2 / 2.0, rtol=1e-12
    )


def test_two_form_action_kills_antiselfdual():
    omega = gaussian((5, 6), 1)
    asd = omega - selfdual_project(omega)
    phi = gaussian((5, 2), 2, complex_=True)
    assert np.allclose(two_form_action(asd, phi), 0.0, atol=1e-14)
    # so the full form acts as its self-dual half
    sd = selfdual_project(omega)
    assert np.allclose(
        two_form_action(omega, phi), two_form_action(sd, phi)
    )


def test_conjugated_table_satisfies_relations():
    w, v = random_unitary(1), random_unitary(2)
    assert clifford_relation_defect(conjugated_table(w, v)).measured < 1e-14

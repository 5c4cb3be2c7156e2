import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from _oracles import frobenius_norm
from qfix.linalg import herm_eig, logdet_psd, psd_solve

# Subnormal entries are left out: a tolerance relative to a subnormal
# ||A||_F rounds to 0.
_ENTRIES = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False).filter(
    lambda x: x == 0.0 or abs(x) >= np.finfo(float).tiny
)


def _random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def _random_pd(rng, n, floor=0.1):
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return b @ b.conj().T + floor * np.eye(n)


def test_eig_matches_reference_oracle():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        a = _random_hermitian(rng, n)
        lam, u = herm_eig(a)
        ref = np.linalg.eigvalsh(a)
        assert np.allclose(lam, ref, atol=1e-9 * max(1.0, frobenius_norm(a)))
        # ascending order, unitary factor, exact reconstruction
        assert np.all(np.diff(lam) >= -1e-12)
        assert np.allclose(u.conj().T @ u, np.eye(n), atol=1e-10)
        assert np.allclose((u * lam) @ u.conj().T, a, atol=1e-9 * max(1.0, frobenius_norm(a)))


def test_eig_shift_invariance():
    rng = np.random.default_rng(1)
    a = _random_hermitian(rng, 5)
    lam, _ = herm_eig(a)
    lam_shift, _ = herm_eig(a + 3.5 * np.eye(5))
    assert np.allclose(lam_shift, lam + 3.5, atol=1e-10)


def test_eig_real_input():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    lam, u = herm_eig(a)
    assert np.allclose(lam, [1.0, 3.0], atol=1e-12)
    assert np.allclose((u * lam) @ u.conj().T, a, atol=1e-12)


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_psd_solve_matches_direct():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a = _random_pd(rng, n)
        b = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        x = psd_solve(a, b)
        assert np.allclose(a @ x, b, atol=1e-8 * max(1.0, frobenius_norm(b)))
        assert np.allclose(x, np.linalg.solve(a, b), atol=1e-7)


def test_psd_solve_tiny_scale():
    # well-conditioned but far below unit scale (noise-power magnitudes)
    a = 1e-13 * np.eye(3)
    b = np.ones((3, 1))
    x = psd_solve(a, b)
    assert np.allclose(x, 1e13 * np.ones((3, 1)), rtol=1e-9)


def test_psd_solve_rejects_indefinite():
    a = np.diag([1.0, -1.0])
    with pytest.raises(ValueError):
        psd_solve(a, np.ones(2))


def test_logdet_matches_slogdet():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a = _random_pd(rng, n)
        sign, ref = np.linalg.slogdet(a)
        assert sign.real == pytest.approx(1.0)
        assert logdet_psd(a) == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_logdet_identity_and_scaling():
    assert logdet_psd(np.eye(4)) == pytest.approx(0.0, abs=1e-12)
    assert logdet_psd(2.0 * np.eye(3)) == pytest.approx(3 * math.log(2.0), rel=1e-12)


def test_logdet_rejects_singular():
    with pytest.raises(ValueError):
        logdet_psd(np.diag([1.0, 0.0]))


def test_frobenius_norm():
    a = np.array([[3.0, 0.0], [0.0, 4.0j]])
    assert frobenius_norm(a) == pytest.approx(5.0, rel=1e-15)


def test_frobenius_norm_does_not_underflow():
    # Squaring 2.5e-244 underflows to 0; a scaled norm does not.
    assert frobenius_norm(np.full((2, 2), 2.5e-244)) == pytest.approx(5e-244, rel=1e-15, abs=0.0)


def test_pd_floor_scales_with_tiny_matrices():
    # ||A||_F = 1e-200 puts the floor at 1e-212, above lam_min = 1e-215.
    a = np.diag([1e-200, 1e-215])
    with pytest.raises(ValueError, match="not positive definite"):
        psd_solve(a, np.ones(2))
    with pytest.raises(ValueError, match="not positive definite"):
        logdet_psd(a)
    b = 1e-200 * np.eye(2)
    assert np.allclose(psd_solve(b, np.ones(2)), 1e200, rtol=1e-12)
    assert logdet_psd(b) == pytest.approx(2 * math.log(1e-200), rel=1e-12)


def _random_unitary(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


def _assert_decomposes(a, lam, u, atol):
    n = a.shape[0]
    assert lam.shape == (n,) and u.shape == (n, n)
    assert np.all(np.diff(lam) >= 0.0)
    assert np.max(np.abs(u.conj().T @ u - np.eye(n))) <= 1e-12
    assert np.max(np.abs((u * lam) @ u.conj().T - a)) <= atol


def test_eig_one_by_one():
    lam, u = herm_eig(np.array([[-2.5 + 0j]]))
    assert lam.tolist() == [-2.5]
    assert u.tolist() == [[1.0]]


@pytest.mark.parametrize("n", [1, 2, 5])
def test_eig_all_zero_matrix(n):
    lam, u = herm_eig(np.zeros((n, n), dtype=complex))
    assert np.array_equal(lam, np.zeros(n))
    assert np.array_equal(u, np.eye(n))


def test_eig_repeated_eigenvalues():
    rng = np.random.default_rng(4)
    for spectrum in ([1.0, 1.0, 2.0, 2.0, 2.0], [3.0] * 4, [-1.0, 0.0, 0.0, 5.0]):
        n = len(spectrum)
        q = _random_unitary(rng, n)
        a = (q * np.array(spectrum)) @ q.conj().T
        a = 0.5 * (a + a.conj().T)
        lam, u = herm_eig(a)
        assert np.allclose(lam, sorted(spectrum), atol=1e-12)
        _assert_decomposes(a, lam, u, atol=1e-12)


def test_eig_sixteen_by_sixteen():
    # N^2 = 16 is the block size of a 4-antenna game.
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = _random_hermitian(rng, 16)
        lam, u = herm_eig(a)
        assert np.allclose(lam, np.linalg.eigvalsh(a), atol=1e-12 * frobenius_norm(a))
        _assert_decomposes(a, lam, u, atol=1e-12 * frobenius_norm(a))


@pytest.mark.parametrize(
    "bad",
    [
        np.ones((2, 3)),
        np.ones(3),
        np.ones((2, 2, 3)),
        np.zeros((0, 0)),
        np.array([[1.0, np.nan], [np.nan, 1.0]]),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
        np.array([[1.0, complex(0.0, np.inf)], [complex(0.0, -np.inf), 1.0]]),
    ],
)
def test_eig_solve_logdet_reject_malformed(bad):
    with pytest.raises(ValueError):
        herm_eig(bad)
    with pytest.raises(ValueError):
        psd_solve(bad, np.ones((bad.shape[0], 1)))
    with pytest.raises(ValueError):
        logdet_psd(bad)


def test_psd_solve_vector_rhs():
    rng = np.random.default_rng(6)
    a = _random_pd(rng, 4)
    b = rng.normal(size=4) + 1j * rng.normal(size=4)
    x = psd_solve(a, b)
    assert x.shape == (4,)
    assert np.allclose(a @ x, b, atol=1e-10)
    assert np.allclose(x, psd_solve(a, b[:, None])[:, 0], atol=0.0)


def test_pd_floor_refuses_tiny_positive_eigenvalue():
    # 0 < lam_min <= 1e-12 ||A||_F: positive definite in exact arithmetic and
    # accepted by a Cholesky factorization, but below the relative floor.
    q = _random_unitary(np.random.default_rng(7), 3)
    for a in (np.diag([1.0, 2.0, 5e-13]), (q * np.array([1.0, 2.0, 1e-12])) @ q.conj().T):
        a = 0.5 * (a + a.conj().T)
        lam, _ = herm_eig(a)
        assert 0.0 < lam[0] <= 1e-12 * frobenius_norm(a)
        np.linalg.cholesky(a)
        with pytest.raises(ValueError, match="not positive definite"):
            psd_solve(a, np.eye(3))
        with pytest.raises(ValueError, match="not positive definite"):
            logdet_psd(a)


@given(
    st.integers(1, 16).flatmap(
        lambda n: hnp.arrays(np.float64, (2, n, n), elements=_ENTRIES)
    )
)
def test_eig_reconstructs_random_hermitian(parts):
    a = parts[0] + 1j * parts[1]
    a = 0.5 * (a + a.conj().T)
    lam, u = herm_eig(a)
    _assert_decomposes(a, lam, u, atol=1e-13 * a.shape[0] * frobenius_norm(a))


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _stacks(n):
    shape = st.tuples(st.integers(1, 5), st.just(2), st.just(n), st.just(n))
    return st.tuples(hnp.arrays(np.float64, shape, elements=_ENTRIES), st.integers(0, 4))


@given(st.integers(1, 5).flatmap(_stacks))
def test_stacked_calls_equal_per_matrix_calls_bit_for_bit(case):
    parts, zero = case
    g = parts[:, 0] + 1j * parts[:, 1]
    herm = 0.5 * (g + np.swapaxes(g.conj(), -1, -2))
    herm[zero % len(herm)] = 0.0  # an all-zero member
    n = herm.shape[-1]
    pd = g @ np.swapaxes(g.conj(), -1, -2) + np.eye(n)
    rhs = np.swapaxes(g, -1, -2)
    lam, u = herm_eig(herm)
    solved = psd_solve(pd, rhs)
    logdets = logdet_psd(pd)
    assert lam.shape == herm.shape[:-1] and solved.shape == pd.shape
    assert logdets.shape == pd.shape[:-2]
    for i in range(len(herm)):
        lam_i, u_i = herm_eig(herm[i])
        assert _same(lam[i], lam_i) and _same(u[i], u_i)
        assert _same(solved[i], psd_solve(pd[i], rhs[i]))
        assert _same(logdets[i], logdet_psd(pd[i])) and isinstance(logdet_psd(pd[i]), float)
    # A stack of stacks is the same calls again.
    lam2, u2 = herm_eig(herm.reshape((1,) + herm.shape))
    assert _same(lam2[0], lam) and _same(u2[0], u)


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), "non-finite"),
        (np.array([[1.0, 1.0], [0.0, 1.0]]), "not Hermitian"),
        (np.diag([1.0, -1.0]), "not positive definite"),
    ],
)
def test_a_stack_with_one_bad_member_raises(bad, message):
    stack = np.stack([np.eye(2), 2.0 * np.eye(2), bad, np.eye(2)]).astype(complex)
    with pytest.raises(ValueError, match=message):
        psd_solve(stack, np.ones((4, 2, 1)))
    with pytest.raises(ValueError, match=message):
        logdet_psd(stack)
    if message != "not positive definite":
        with pytest.raises(ValueError, match=message):
            herm_eig(stack)
    # The Hermitian tolerance is each matrix's own: a large member's rounding
    # does not make a small member's asymmetry pass, nor the reverse.
    big = 1e6 * np.eye(2, dtype=complex)
    big[0, 1] += 1e-5
    herm_eig(big)
    with pytest.raises(ValueError, match="not Hermitian"):
        herm_eig(np.stack([big, np.array([[1.0, 1e-9], [0.0, 1.0]])]))


@pytest.mark.parametrize(
    "stack",
    [
        # One member non-finite, another non-Hermitian, in either order.
        np.array([[[1.0, 5.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]]]),
        np.array([[[np.nan, 0.0], [0.0, 1.0]], [[1.0, 5.0], [0.0, 1.0]]]),
        # One member both non-finite and non-Hermitian.
        np.array([[[1.0, complex(np.inf, 1.0)], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]),
    ],
)
def test_non_finite_is_reported_before_non_hermitian(stack):
    for call in (
        lambda: herm_eig(stack),
        lambda: psd_solve(stack, np.ones((2, 2, 1))),
        lambda: logdet_psd(stack),
    ):
        with pytest.raises(ValueError, match="non-finite entries"):
            call()


def _symmetrized(a):
    return 0.5 * (a + np.swapaxes(a.conj(), -1, -2))


@settings(max_examples=300)
@given(st.integers(1, 5).flatmap(_stacks))
def test_an_exactly_hermitian_input_is_its_own_symmetrization(case):
    # herm_eig symmetrizes only when some entry deviates; a symmetrized input
    # decomposes exactly as symmetrizing it once more would.
    parts, zero = case
    g = parts[:, 0] + 1j * parts[:, 1]
    g[zero % len(g), 0] = 0.0  # exact zeros, whose signs a symmetrization could flip
    herm = _symmetrized(g)
    lam, u = herm_eig(herm)
    again = _symmetrized(herm)
    assert again.tobytes() == herm.tobytes()
    if herm.shape[-1] > 1:
        lam_again, u_again = np.linalg.eigh(again)
        assert _same(lam, lam_again) and _same(u, u_again)

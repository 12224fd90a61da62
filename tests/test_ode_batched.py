"""Tests for the batched BDF integrator and its supporting substrates.

The batched path (§3.8's CVODE+MAGMA motif) must reproduce the scalar
integrator's answers: same per-cell variable-order BDF (orders 1–5, each
cell its own order and step), just advanced in lockstep with batched
linear algebra.  The property test drives both on
batches of random stiff linear systems — including badly ragged batches
where per-cell stiffness spans several decades so cells converge at very
different rates — and checks agreement within solver tolerances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from repro.chem.codegen import compile_batched_kernels, compile_rates
from repro.chem.kinetics import (
    analytic_jacobian,
    analytic_jacobian_batch,
    production_rates,
    production_rates_batch,
)
from repro.chem.mechanism import h2_o2_mechanism
from repro.linalg import BatchedLU, batched_lu_factor, batched_lu_solve_factored
from repro.ode import BatchedBdfIntegrator, BdfIntegrator, IntegrationError


def _random_stiff_batch(seed: int, ncells: int, n: int):
    """Per-cell stable linear systems with stiffness spread over decades."""
    rng = np.random.default_rng(seed)
    A = np.empty((ncells, n, n))
    for b in range(ncells):
        lam = -(10.0 ** rng.uniform(-1.0, 3.0, n))  # decades of stiffness
        Q = rng.standard_normal((n, n)) * 0.3 + np.eye(n)
        A[b] = Q @ np.diag(lam) @ np.linalg.inv(Q)
    y0 = rng.uniform(0.5, 1.5, (ncells, n))
    return A, y0


class TestBatchedLUFactor:
    def test_factored_solve_matches_numpy(self):
        rng = np.random.default_rng(3)
        mats = rng.standard_normal((8, 5, 5)) + 5.0 * np.eye(5)
        rhs = rng.standard_normal((8, 5))
        lu, piv = batched_lu_factor(mats)
        x = batched_lu_solve_factored(lu, piv, rhs)
        ref = np.stack([np.linalg.solve(m, b) for m, b in zip(mats, rhs)])
        assert np.allclose(x, ref, atol=1e-10)

    def test_pivoting_handles_zero_diagonal(self):
        mats = np.array([[[0.0, 1.0], [1.0, 0.0]]])
        rhs = np.array([[2.0, 3.0]])
        lu, piv = batched_lu_factor(mats)
        x = batched_lu_solve_factored(lu, piv, rhs)
        assert np.allclose(x, [[3.0, 2.0]])

    def test_factor_once_solve_many(self):
        rng = np.random.default_rng(4)
        mats = rng.standard_normal((6, 4, 4)) + 4.0 * np.eye(4)
        handle = BatchedLU(mats)
        for k in range(3):
            rhs = rng.standard_normal((6, 4))
            ref = np.stack([np.linalg.solve(m, b) for m, b in zip(mats, rhs)])
            assert np.allclose(handle.solve(rhs), ref, atol=1e-10)

    def test_subset_solve_and_update(self):
        rng = np.random.default_rng(5)
        mats = rng.standard_normal((6, 3, 3)) + 3.0 * np.eye(3)
        handle = BatchedLU(mats)
        idx = np.array([1, 4])
        rhs = rng.standard_normal((2, 3))
        ref = np.stack([np.linalg.solve(mats[i], b) for i, b in zip(idx, rhs)])
        assert np.allclose(handle.solve_subset(idx, rhs), ref, atol=1e-10)
        fresh = rng.standard_normal((2, 3, 3)) + 3.0 * np.eye(3)
        handle.update(idx, fresh)
        ref2 = np.stack([np.linalg.solve(m, b) for m, b in zip(fresh, rhs)])
        assert np.allclose(handle.solve_subset(idx, rhs), ref2, atol=1e-10)


class TestBatchedKinetics:
    def test_rates_batch_matches_per_cell(self):
        mech = h2_o2_mechanism()
        rng = np.random.default_rng(0)
        conc = rng.uniform(0.01, 1.0, (5, mech.n_species))
        T = rng.uniform(900.0, 1500.0, 5)
        batch = production_rates_batch(mech, T, conc)
        for i in range(5):
            ref = production_rates(mech, float(T[i]), conc[i])
            assert np.allclose(batch[i], ref, rtol=1e-12)

    def test_jacobian_batch_matches_per_cell(self):
        mech = h2_o2_mechanism()
        rng = np.random.default_rng(1)
        conc = rng.uniform(0.01, 1.0, (4, mech.n_species))
        T = rng.uniform(900.0, 1500.0, 4)
        batch = analytic_jacobian_batch(mech, T, conc)
        for i in range(4):
            ref = analytic_jacobian(mech, float(T[i]), conc[i])
            assert np.allclose(batch[i], ref, rtol=1e-10, atol=1e-8)

    def test_generated_batched_kernels_match_interpreted(self):
        mech = h2_o2_mechanism()
        kernels = compile_batched_kernels(mech)
        rng = np.random.default_rng(2)
        conc = rng.uniform(0.01, 1.0, (6, mech.n_species))
        T = rng.uniform(900.0, 1500.0, 6)
        assert np.allclose(kernels.rates(T, conc),
                           production_rates_batch(mech, T, conc), rtol=1e-12)
        assert np.allclose(kernels.jacobian(T, conc),
                           analytic_jacobian_batch(mech, T, conc), rtol=1e-10)

    def test_rates_broadcast_leading_axes(self):
        # the FD-Jacobian contract: a stacked (k, B, n) state evaluates
        # column-by-column identically to k separate (B, n) evaluations
        mech = h2_o2_mechanism()
        kernels = compile_batched_kernels(mech)
        rng = np.random.default_rng(3)
        stacked = rng.uniform(0.01, 1.0, (3, 4, mech.n_species))
        T = rng.uniform(900.0, 1500.0, 4)
        out = kernels.rates(T, stacked)
        assert out.shape == stacked.shape
        for k in range(3):
            assert np.allclose(out[k], kernels.rates(T, stacked[k]))

    def test_codegen_memoized_per_mechanism(self):
        mech = h2_o2_mechanism()
        assert compile_batched_kernels(mech) is compile_batched_kernels(mech)
        assert compile_rates(mech) is compile_rates(mech)
        # an equivalent-but-distinct Mechanism object hits the same cache
        assert compile_batched_kernels(h2_o2_mechanism()) is (
            compile_batched_kernels(mech)
        )


class TestBatchedBdf:
    def test_exponential_decay_batch(self):
        lam = np.array([1.0, 10.0, 100.0])
        integ = BatchedBdfIntegrator(
            lambda t, y: -lam[:, None] * y, rtol=1e-8, atol=1e-12)
        res = integ.integrate(np.ones((3, 1)), 0.0, 1.0)
        assert np.allclose(res.y[:, 0], np.exp(-lam), rtol=1e-5)
        assert np.all(res.t == 1.0)

    def test_matches_exact_solution_mixed_stiffness(self):
        A, y0 = _random_stiff_batch(7, ncells=6, n=3)
        integ = BatchedBdfIntegrator(
            lambda t, y: np.einsum("bij,...bj->...bi", A, y),
            rtol=1e-7, atol=1e-10)
        res = integ.integrate(y0, 0.0, 0.5)
        exact = np.stack([expm(0.5 * A[b]) @ y0[b] for b in range(len(A))])
        assert np.allclose(res.y, exact, rtol=1e-4, atol=1e-7)

    def test_fd_jacobian_matches_analytic_path(self):
        A, y0 = _random_stiff_batch(11, ncells=4, n=3)

        def rhs(t, y):
            return np.einsum("bij,...bj->...bi", A, y)

        fd = BatchedBdfIntegrator(rhs, rtol=1e-7, atol=1e-10)
        an = BatchedBdfIntegrator(
            rhs, jac=lambda t, y: A, rtol=1e-7, atol=1e-10)
        rf = fd.integrate(y0, 0.0, 0.3)
        ra = an.integrate(y0, 0.0, 0.3)
        assert np.allclose(rf.y, ra.y, rtol=1e-5, atol=1e-8)
        # analytic path never sweeps the RHS to build Jacobians
        assert ra.stats.rhs_sweeps < rf.stats.rhs_sweeps

    def test_jacobian_reuse_keeps_builds_far_below_steps(self):
        A, y0 = _random_stiff_batch(13, ncells=5, n=3)
        integ = BatchedBdfIntegrator(
            lambda t, y: np.einsum("bij,...bj->...bi", A, y),
            rtol=1e-6, atol=1e-9)
        res = integ.integrate(y0, 0.0, 1.0)
        assert res.stats.jac_builds < res.stats.steps / 5

    def test_validates_inputs(self):
        integ = BatchedBdfIntegrator(lambda t, y: -y)
        with pytest.raises(IntegrationError):
            integ.integrate(np.ones((2, 2)), 1.0, 0.0)
        with pytest.raises(IntegrationError):
            integ.integrate(np.ones(3), 0.0, 1.0)

    def test_step_underflow_raises(self):
        def discontinuous(t, y):
            t_arr = np.broadcast_to(np.asarray(t, dtype=float), y.shape[-2])
            bad = (t_arr > 0.5)[..., None]
            return np.where(bad, np.inf, -y)

        integ = BatchedBdfIntegrator(discontinuous, rtol=1e-8, atol=1e-12)
        with pytest.raises((IntegrationError, FloatingPointError, ValueError)):
            integ.integrate(np.ones((2, 1)), 0.0, 1.0)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000),
       ncells=st.integers(2, 5),
       n=st.integers(2, 4))
def test_batched_matches_scalar_property(seed, ncells, n):
    """Batched and scalar BDF agree on random ragged stiff batches."""
    A, y0 = _random_stiff_batch(seed, ncells, n)
    rtol, atol = 1e-6, 1e-9
    batched = BatchedBdfIntegrator(
        lambda t, y: np.einsum("bij,...bj->...bi", A, y),
        jac=lambda t, y: A, rtol=rtol, atol=atol)
    res = batched.integrate(y0, 0.0, 0.5)
    for b in range(ncells):
        scalar = BdfIntegrator(lambda t, y, Ab=A[b]: Ab @ y,
                               rtol=rtol, atol=atol)
        ref = scalar.integrate(y0[b].copy(), 0.0, 0.5).y
        # both carry O(tol) local error; compare against a shared band
        scale = np.abs(ref) + np.abs(y0[b]).max()
        assert np.all(np.abs(res.y[b] - ref) <= 200 * rtol * scale + 100 * atol)

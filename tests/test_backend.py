"""Parity suite for the numpy kernels, each against an independent reference.

Batched LU / inverse against ``np.linalg.solve``, fused chemistry rates
against the generated kernel and against a per-slice loop, popcount
tallies integer-exact against the naive sweeps they replaced, pairwise
forces against the per-pair loops, batched chemistry against the scalar
integrator — plus checkpoint/restore of a mid-flight integration.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend.numpy_backend import NUMPY
from repro.chem.fused import rate_tables
from repro.chem.mechanism import drm19_like_mechanism, h2_o2_mechanism
from repro.particles import pm
from repro.similarity import gemmtally
from repro.similarity.gemmtally import pack_alleles, popcount_words


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _spd_stack(rng, b: int, n: int) -> np.ndarray:
    """Well-conditioned random systems (diagonally dominated)."""
    mats = rng.normal(size=(b, n, n))
    mats[:, np.arange(n), np.arange(n)] += n
    return mats


def _solve(mats: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """LAPACK reference for a (batch, n) right-hand side."""
    return np.linalg.solve(mats, rhs[..., None])[..., 0]


@pytest.fixture
def engine(request):
    return request.param


def numpy_tagged(cls):
    """Tag each test of *cls* ``[numpy]``, the id it carried when this
    suite was parametrized over array engines, so test ids stay stable."""
    cls = pytest.mark.parametrize("engine", ["numpy"], indirect=True)(cls)
    return pytest.mark.usefixtures("engine")(cls)


# ---------------------------------------------------------------------------
# batched LU / inverse parity
# ---------------------------------------------------------------------------


@numpy_tagged
class TestLinalgParity:
    def test_lu_solves_random_systems(self):
        rng = _rng(7)
        mats = _spd_stack(rng, 12, 6)
        rhs = rng.normal(size=(12, 6))
        lu, piv = NUMPY.lu_factor(mats)
        x = NUMPY.lu_solve(lu, piv, rhs)
        resid = np.einsum("bij,bj->bi", mats, x) - rhs
        assert np.abs(resid).max() < 1e-9

    def test_lu_matches_reference_within_tolerance(self):
        rng = _rng(8)
        mats = _spd_stack(rng, 9, 5)
        rhs = rng.normal(size=(9, 5))
        x_ref = _solve(mats, rhs)
        x = NUMPY.lu_solve(*NUMPY.lu_factor(mats), rhs)
        scale = np.abs(x_ref).max() + 1e-300
        assert np.abs(x - x_ref).max() / scale < 1e-9

    def test_lu_handles_pivoting(self):
        # leading zero forces a row swap in every system
        mats = np.array([[[0.0, 2.0], [3.0, 1.0]],
                         [[1e-30, 1.0], [1.0, 1.0]]])
        rhs = np.array([[4.0, 5.0], [1.0, 2.0]])
        x = NUMPY.lu_solve(*NUMPY.lu_factor(mats), rhs)
        resid = np.einsum("bij,bj->bi", mats, x) - rhs
        assert np.abs(resid).max() < 1e-9

    def test_inverse_apply_matches_solve(self):
        rng = _rng(9)
        mats = _spd_stack(rng, 8, 7)
        rhs = rng.normal(size=(8, 7))
        x = NUMPY.inv_apply(NUMPY.inv(mats), rhs)
        x_ref = _solve(mats, rhs)
        scale = np.abs(x_ref).max() + 1e-300
        assert np.abs(x - x_ref).max() / scale < 1e-9

    def test_matrix_rhs_solve(self):
        rng = _rng(10)
        mats = _spd_stack(rng, 4, 5)
        rhs = rng.normal(size=(4, 5, 3))
        x = NUMPY.lu_solve(*NUMPY.lu_factor(mats), rhs)
        resid = np.matmul(mats, x) - rhs
        assert np.abs(resid).max() < 1e-9


@settings(max_examples=20, deadline=None)
@given(
    b=st.integers(1, 6),
    n=st.integers(1, 8),
    seed=st.integers(0, 2**31 - 1),
)
def test_lu_parity_property(b, n, seed):
    """The batched LU agrees with LAPACK on random well-conditioned stacks."""
    rng = _rng(seed)
    mats = _spd_stack(rng, b, n)
    rhs = rng.normal(size=(b, n))
    x_ref = _solve(mats, rhs)
    scale = np.abs(x_ref).max() + 1e-300
    x = NUMPY.lu_solve(*NUMPY.lu_factor(mats), rhs)
    assert np.abs(x - x_ref).max() / scale < 1e-9


# ---------------------------------------------------------------------------
# fused chemistry rates parity
# ---------------------------------------------------------------------------


@numpy_tagged
@pytest.mark.parametrize("mech_fn", [h2_o2_mechanism, drm19_like_mechanism])
class TestRatesParity:
    def test_wdot_matches_generated_kernel(self, mech_fn):
        from repro.chem.codegen import compile_batched_kernels

        mech = mech_fn()
        kernel = NUMPY.rates_kernel(rate_tables(mech))
        rng = _rng(3)
        T = rng.uniform(1200.0, 1800.0, 5)
        C = rng.uniform(0.05, 1.0, (5, mech.n_species))
        kf, kr = kernel.rate_constants(T)
        got = kernel.wdot(kf, kr, C)
        want = compile_batched_kernels(mech).rates(T, C)
        scale = np.abs(want).max() + 1e-300
        assert np.abs(got - want).max() / scale < 1e-12

    def test_wdot_broadcasts_fd_perturbation_stack(self, mech_fn):
        """The FD-Jacobian shape: (n, B, n) leading-axis broadcasting
        equals evaluating each perturbed copy on its own."""
        mech = mech_fn()
        kernel = NUMPY.rates_kernel(rate_tables(mech))
        rng = _rng(4)
        n = mech.n_species
        T = rng.uniform(1200.0, 1800.0, 3)
        C = rng.uniform(0.05, 1.0, (n, 3, n))  # stacked perturbed copies
        kf, kr = kernel.rate_constants(T)
        got = kernel.wdot(kf, kr, C)
        assert got.shape == (n, 3, n)
        want = np.stack([kernel.wdot(kf, kr, C[p]) for p in range(n)])
        scale = np.abs(want).max() + 1e-300
        assert np.abs(got - want).max() / scale < 1e-12


# ---------------------------------------------------------------------------
# popcount tally parity (integer exact)
# ---------------------------------------------------------------------------


def _reference_tallies_2way(words: np.ndarray) -> np.ndarray:
    """The original per-state-pair sweep, kept as the semantic anchor."""
    n, S, _ = words.shape
    counts = np.empty((S, S, n, n), dtype=np.int64)
    for s in range(S):
        for t in range(S):
            counts[s, t] = popcount_words(
                words[:, s, None, :] & words[None, :, t, :]
            ).sum(axis=-1, dtype=np.int64)
    return counts


#: The element budget of the parent kernels below, frozen so that tests
#: which shrink ``gemmtally._SWEEP_BUDGET`` leave the reference alone.
_PARENT_SWEEP_BUDGET = 1 << 24


def _parent_tallies_2way(words: np.ndarray) -> np.ndarray:
    """The full-square word-block sweep the triangle kernel replaced."""
    n, S, W = words.shape
    flat = words.reshape(n * S, W)
    counts = np.zeros((n * S, n * S), dtype=np.int64)
    block = max(1, _PARENT_SWEEP_BUDGET // max(1, (n * S) ** 2))
    for w0 in range(0, W, block):
        blk = flat[:, w0:w0 + block]
        counts += popcount_words(blk[:, None, :] & blk[None, :, :]).sum(
            axis=-1, dtype=np.int64)
    return np.ascontiguousarray(
        counts.reshape(n, S, n, S).transpose(1, 3, 0, 2))


def _parent_tallies_3way(words: np.ndarray) -> np.ndarray:
    """The all-(i, j, k) per-state-triple sweep the simplex kernel replaced."""
    n, S, _ = words.shape
    counts = np.empty((S,) * 3 + (n,) * 3, dtype=np.int64)
    for s in range(S):
        for t in range(S):
            pair = words[:, s, None, :] & words[None, :, t, :]
            for u in range(S):
                tri = pair[:, :, None, :] & words[None, None, :, u, :]
                counts[s, t, u] = popcount_words(tri).sum(
                    axis=-1, dtype=np.int64)
    return counts


def _assert_same_tallies(got: np.ndarray, want: np.ndarray, msg: str = ""):
    assert got.dtype == np.int64, msg
    assert got.flags.c_contiguous, msg
    np.testing.assert_array_equal(got, want, err_msg=msg)


def test_popcount_lut_matches_bitwise_count():
    """The byte-lookup popcount (numpy < 2.0) counts every bit of a word."""
    words = _rng(18).integers(0, 2**64, size=(5, 3, 37), dtype=np.uint64)
    words[0, 0, :2] = [0, 2**64 - 1]
    want = np.array([bin(int(w)).count("1") for w in words.ravel()]
                    ).reshape(words.shape)
    np.testing.assert_array_equal(gemmtally._popcount_words_lut(words), want)
    np.testing.assert_array_equal(popcount_words(words), want)
    if hasattr(np, "bitwise_count"):
        assert popcount_words is np.bitwise_count


@numpy_tagged
class TestTallyParity:
    def test_2way_exact_on_random_data(self):
        rng = _rng(11)
        data = rng.integers(0, 3, size=(9, 130))  # 3 states, 3 words
        packed = pack_alleles(data, n_states=3)
        got = gemmtally.popcount_tallies_2way(packed)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got,
                                      _reference_tallies_2way(packed.words))

    def test_2way_all_missing_column(self):
        """Vectors whose fields all fall outside [0, n_states) tally zero."""
        rng = _rng(12)
        data = rng.integers(0, 2, size=(6, 70))
        data[2, :] = 9  # entirely missing vector: no state plane bits
        packed = pack_alleles(data, n_states=2)
        counts = gemmtally.popcount_tallies_2way(packed)
        assert (counts[:, :, 2, :] == 0).all()
        assert (counts[:, :, :, 2] == 0).all()

    def test_2way_constant_column(self):
        """A constant vector pairs its full field count with itself."""
        m = 97
        data = np.zeros((4, m), dtype=np.int64)
        data[1, :] = 1
        packed = pack_alleles(data, n_states=2)
        counts = gemmtally.popcount_tallies_2way(packed)
        assert counts[0, 0, 0, 0] == m       # all-zero vs itself in state 0
        assert counts[1, 1, 1, 1] == m       # all-one vs itself in state 1
        assert counts[0, 1, 0, 1] == m       # cross-state pairing
        assert counts[1, 0, 0, 0] == 0       # vector 0 never in state 1
        np.testing.assert_array_equal(counts,
                                      _reference_tallies_2way(packed.words))

    def test_3way_exact_on_random_data(self):
        rng = _rng(13)
        data = rng.integers(0, 2, size=(5, 80))
        packed = pack_alleles(data, n_states=2)
        got = gemmtally.popcount_tallies_3way(packed)
        np.testing.assert_array_equal(got,
                                      gemmtally.einsum_tallies_3way(data))

    def test_2way_word_block_chunking(self, monkeypatch):
        """A small sweep budget chunks both kernels and stays exact.

        At 64 elements the 2-way sweep takes one row per block and splits
        its words, and the 3-way sweep takes one j row and one word per
        block; at 512 the 2-way row blocks hold several full-width rows.
        """
        rng = _rng(14)
        data = rng.integers(0, 2, size=(8, 64 * 7 + 3))
        packed = pack_alleles(data, n_states=2)
        want2 = _reference_tallies_2way(packed.words)
        want3 = _parent_tallies_3way(packed.words)
        for budget in (64, 512):
            monkeypatch.setattr(gemmtally, "_SWEEP_BUDGET", budget)
            _assert_same_tallies(gemmtally.popcount_tallies_2way(packed),
                                 want2, f"2-way, budget {budget}")
            _assert_same_tallies(gemmtally.popcount_tallies_3way(packed),
                                 want3, f"3-way, budget {budget}")

    def test_tallies_on_lut_popcount(self, monkeypatch):
        """Both kernels stay exact on the numpy < 2.0 popcount."""
        rng = _rng(19)
        data = rng.integers(-1, 3, size=(7, 64 * 2 + 5))
        packed = pack_alleles(data, n_states=3)
        want2 = _reference_tallies_2way(packed.words)
        want3 = _parent_tallies_3way(packed.words)
        monkeypatch.setattr(gemmtally, "popcount_words",
                            gemmtally._popcount_words_lut)
        _assert_same_tallies(gemmtally.popcount_tallies_2way(packed), want2)
        _assert_same_tallies(gemmtally.popcount_tallies_3way(packed), want3)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 7),
    m=st.integers(1, 150),
    n_states=st.integers(2, 3),
    seed=st.integers(0, 2**31 - 1),
)
def test_tally_2way_parity_property(n, m, n_states, seed):
    rng = _rng(seed)
    # include out-of-range values: missing fields must stay excluded
    data = rng.integers(0, n_states + 1, size=(n, m))
    packed = pack_alleles(data, n_states=n_states)
    want = gemmtally.einsum_tallies_2way(data, n_states=n_states)
    np.testing.assert_array_equal(gemmtally.popcount_tallies_2way(packed),
                                  want)


@st.composite
def _allele_planes(draw):
    """Packed planes for n in 1..9, S in 1..3, m in 1..200, with missing
    values (-1 and S fall outside every state) and, sometimes, one vector
    whose fields are all missing."""
    n = draw(st.integers(1, 9))
    n_states = draw(st.integers(1, 3))
    m = draw(st.integers(1, 200))
    rng = _rng(draw(st.integers(0, 2**31 - 1)))
    data = rng.integers(-1, n_states + 1, size=(n, m))
    missing = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    if missing is not None:
        data[missing] = -1
    return pack_alleles(data, n_states=n_states)


@settings(max_examples=60, deadline=None)
@given(packed=_allele_planes())
def test_tally_kernels_match_parent_kernels(packed):
    """The symmetric kernels equal the full sweeps they replaced, entry for
    entry, degenerate index tuples included."""
    _assert_same_tallies(gemmtally.popcount_tallies_2way(packed),
                         _parent_tallies_2way(packed.words))
    _assert_same_tallies(gemmtally.popcount_tallies_3way(packed),
                         _parent_tallies_3way(packed.words))


# ---------------------------------------------------------------------------
# pairwise forces parity
# ---------------------------------------------------------------------------


@numpy_tagged
class TestForcesParity:
    def test_short_range_matches_naive_loop(self):
        rng = _rng(15)
        box, rs = 10.0, 0.8
        x = rng.uniform(0, box, (20, 3))
        masses = rng.uniform(0.5, 2.0, 20)
        want = pm.short_range_forces(x, masses, box, rs=rs, vectorized=False)
        got = pm.pairwise_forces(x, masses, G=1.0, rs=rs, cutoff=5.0 * rs,
                                 box_size=box)
        scale = np.abs(want).max() + 1e-300
        assert np.abs(got - want).max() / scale < 1e-9

    def test_direct_matches_naive_loop(self):
        rng = _rng(16)
        x = rng.uniform(0, 4.0, (15, 3))
        masses = rng.uniform(0.5, 2.0, 15)
        want = pm.direct_forces(x, masses, vectorized=False)
        got = pm.pairwise_forces(x, masses, G=1.0)
        scale = np.abs(want).max() + 1e-300
        assert np.abs(got - want).max() / scale < 1e-9

    def test_forces_edge_cases(self):
        x1 = np.array([[1.0, 2.0, 3.0]])
        m1 = np.array([1.0])
        assert np.array_equal(pm.pairwise_forces(x1, m1, G=1.0),
                              np.zeros((1, 3)))
        # coincident particles are dropped, not divided by zero
        x2 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        m2 = np.ones(2)
        got = pm.pairwise_forces(x2, m2, G=1.0, rs=0.5, cutoff=2.0,
                                 box_size=5.0)
        assert np.isfinite(got).all()
        assert np.array_equal(got, np.zeros((2, 3)))

    def test_newtons_third_law(self):
        rng = _rng(17)
        x = rng.uniform(0, 6.0, (12, 3))
        masses = rng.uniform(0.5, 2.0, 12)
        got = pm.pairwise_forces(x, masses, G=1.0, rs=0.9, cutoff=4.5,
                                 box_size=6.0)
        assert np.abs(got.sum(axis=0)).max() < 1e-10


# ---------------------------------------------------------------------------
# end-to-end: batched chemistry and checkpoint/restore
# ---------------------------------------------------------------------------


def _fused_integrator(cfg, T, **kwargs):
    """A batched integrator on the fused rates kernel for field *T*."""
    from repro.ode import BatchedBdfIntegrator

    kernel = NUMPY.rates_kernel(rate_tables(cfg.mechanism))
    kf, kr = kernel.rate_constants(T)
    return BatchedBdfIntegrator(
        lambda t, conc: kernel.wdot(kf, kr, np.maximum(conc, 0.0)), **kwargs)


@numpy_tagged
class TestIntegrationAcrossBackends:
    def test_chemistry_integration_matches_reference(self):
        from repro.apps.pele import (
            PeleConfig,
            chemistry_field,
            integrate_chemistry_batched,
            integrate_chemistry_scalar,
        )

        cfg = PeleConfig(mechanism=h2_o2_mechanism())
        T, C0 = chemistry_field(cfg, 6, seed=1)
        ref = integrate_chemistry_scalar(cfg, T, C0, 1e-7)
        got = integrate_chemistry_batched(cfg, T, C0, 1e-7)
        scale = np.abs(ref).max() + 1e-300
        assert np.abs(got.y - ref).max() / scale < 1e-6

    def test_mid_integration_checkpoint_restore(self):
        """Pause/snapshot/restore mid-integration resumes exactly."""
        from repro.apps.pele import PeleConfig, chemistry_field
        from repro.chem.codegen import compile_batched_kernels

        cfg = PeleConfig(mechanism=h2_o2_mechanism())
        T, C0 = chemistry_field(cfg, 5, seed=2)
        kernels = compile_batched_kernels(cfg.mechanism)

        def jac(t, conc):
            return kernels.jacobian(T, np.maximum(conc, 0.0))

        def integrator():
            return _fused_integrator(cfg, T, jac=jac)

        base = integrator()
        uninterrupted = integrator()
        state = base.start(C0, 0.0, 1e-7)
        ref_state = uninterrupted.start(C0, 0.0, 1e-7)
        for _ in range(4):
            base.step_round(state)
        snap = state.snapshot()

        resumed_state = integrator().start(C0, 0.0, 1e-7)
        resumed_state.restore(snap)
        # the held Newton caches (J/lu/inv) travel with the snapshot
        np.testing.assert_array_equal(resumed_state.inv, state.inv)

        cont = integrator()
        while not resumed_state.finished:
            cont.step_round(resumed_state)
        while not ref_state.finished:
            uninterrupted.step_round(ref_state)
        np.testing.assert_array_equal(resumed_state.Y, ref_state.Y)
        np.testing.assert_array_equal(resumed_state.t, ref_state.t)

    def test_snapshot_version_guard(self):
        """Older snapshots are refused, not misread: v1 has no held
        inverse, v2 carries the BDF(1,2) point history instead of the
        variable-order difference array."""
        from repro.apps.pele import PeleConfig, chemistry_field
        from repro.resilience.snapshot import SnapshotError

        cfg = PeleConfig(mechanism=h2_o2_mechanism())
        T, C0 = chemistry_field(cfg, 3, seed=3)
        state = _fused_integrator(cfg, T).start(C0, 0.0, 1e-8)
        snap = state.snapshot()
        assert snap.version == 3
        for old in (1, 2):
            stale = type(snap)(kind=snap.kind, version=old,
                               payload=snap.payload)
            with pytest.raises(SnapshotError):
                state.restore(stale)

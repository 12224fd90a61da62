"""Backend parity suite: every array backend against the numpy reference.

The contract of :mod:`repro.backend`: alternate backends are *drop-in*
for the three hot kernel families — integer-exact popcount tallies,
≤1e-9 relative batched LU / pairwise forces, roundoff-level fused
chemistry rates — plus registry semantics, stub behavior, and
checkpoint/restore of a mid-flight integration under a non-default
backend.  Parametrized over whatever backends the process actually has,
so the same file is the acceptance suite for a future numba/cupy/JAX
host (the CI matrix job pins ``REPRO_BACKEND`` to force each one).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import (
    ArrayBackend,
    BackendUnavailable,
    available_backends,
    backend_available,
    get_backend,
    register_backend,
    registered_backends,
    resolve_backend,
)
from repro.backend.numpy_backend import NumpyBackend, popcount_words
from repro.chem.fused import rate_tables
from repro.chem.mechanism import drm19_like_mechanism, h2_o2_mechanism

BACKENDS = available_backends()
REF = get_backend("numpy")


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _spd_stack(rng, b: int, n: int) -> np.ndarray:
    """Well-conditioned random systems (diagonally dominated)."""
    mats = rng.normal(size=(b, n, n))
    mats[:, np.arange(n), np.arange(n)] += n
    return mats


# ---------------------------------------------------------------------------
# registry semantics
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_numpy_always_available(self):
        assert "numpy" in BACKENDS
        assert isinstance(get_backend("numpy"), NumpyBackend)

    def test_registered_includes_stubs(self):
        names = registered_backends()
        for expected in ("numpy", "numba", "cupy", "jax"):
            assert expected in names

    def test_stubs_never_available(self):
        assert not backend_available("cupy")
        assert not backend_available("jax")

    def test_stub_construction_raises_with_porting_guidance(self):
        with pytest.raises(BackendUnavailable, match="tests/test_backend"):
            get_backend("cupy")

    def test_unknown_name_raises_keyerror(self):
        with pytest.raises(KeyError, match="no-such-engine"):
            get_backend("no-such-engine")

    def test_instances_are_cached(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_passthrough_and_resolve(self):
        be = get_backend("numpy")
        assert get_backend(be) is be
        assert resolve_backend(be) is be
        assert isinstance(resolve_backend(None), ArrayBackend)

    def test_auto_honors_env_pin(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert get_backend("auto").name == "numpy"
        monkeypatch.setenv("REPRO_BACKEND", "cupy")
        with pytest.raises(BackendUnavailable):
            get_backend("auto")

    def test_register_and_probe_gate(self):
        class Fake(NumpyBackend):
            name = "fake-test-backend"

        register_backend("fake-test-backend", Fake, probe=lambda: False)
        try:
            assert "fake-test-backend" in registered_backends()
            assert "fake-test-backend" not in available_backends()
            with pytest.raises(BackendUnavailable):
                get_backend("fake-test-backend")
        finally:
            # leave the registry as the rest of the suite expects it
            import repro.backend as reg

            reg._FACTORIES.pop("fake-test-backend", None)
            reg._PROBES.pop("fake-test-backend", None)
            reg._INSTANCES.pop("fake-test-backend", None)


# ---------------------------------------------------------------------------
# batched LU / inverse parity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", BACKENDS)
class TestLinalgParity:
    def test_lu_solves_random_systems(self, name):
        be = get_backend(name)
        rng = _rng(7)
        mats = _spd_stack(rng, 12, 6)
        rhs = rng.normal(size=(12, 6))
        lu, piv = be.lu_factor(mats)
        x = be.lu_solve(lu, piv, rhs)
        resid = np.einsum("bij,bj->bi", mats, x) - rhs
        assert np.abs(resid).max() < 1e-9

    def test_lu_matches_reference_within_tolerance(self, name):
        be = get_backend(name)
        rng = _rng(8)
        mats = _spd_stack(rng, 9, 5)
        rhs = rng.normal(size=(9, 5))
        x_ref = REF.lu_solve(*REF.lu_factor(mats), rhs)
        x = be.lu_solve(*be.lu_factor(mats), rhs)
        scale = np.abs(x_ref).max() + 1e-300
        assert np.abs(x - x_ref).max() / scale < 1e-9

    def test_lu_handles_pivoting(self, name):
        be = get_backend(name)
        # leading zero forces a row swap in every system
        mats = np.array([[[0.0, 2.0], [3.0, 1.0]],
                         [[1e-30, 1.0], [1.0, 1.0]]])
        rhs = np.array([[4.0, 5.0], [1.0, 2.0]])
        x = be.lu_solve(*be.lu_factor(mats), rhs)
        resid = np.einsum("bij,bj->bi", mats, x) - rhs
        assert np.abs(resid).max() < 1e-9

    def test_inverse_apply_matches_solve(self, name):
        be = get_backend(name)
        rng = _rng(9)
        mats = _spd_stack(rng, 8, 7)
        rhs = rng.normal(size=(8, 7))
        x = be.inv_apply(be.inv(mats), rhs)
        x_ref = REF.lu_solve(*REF.lu_factor(mats), rhs)
        scale = np.abs(x_ref).max() + 1e-300
        assert np.abs(x - x_ref).max() / scale < 1e-9

    def test_matrix_rhs_solve(self, name):
        be = get_backend(name)
        rng = _rng(10)
        mats = _spd_stack(rng, 4, 5)
        rhs = rng.normal(size=(4, 5, 3))
        x = be.lu_solve(*be.lu_factor(mats), rhs)
        resid = np.matmul(mats, x) - rhs
        assert np.abs(resid).max() < 1e-9


@settings(max_examples=20, deadline=None)
@given(
    b=st.integers(1, 6),
    n=st.integers(1, 8),
    seed=st.integers(0, 2**31 - 1),
)
def test_lu_parity_property(b, n, seed):
    """All available backends agree on random well-conditioned stacks."""
    rng = _rng(seed)
    mats = _spd_stack(rng, b, n)
    rhs = rng.normal(size=(b, n))
    x_ref = REF.lu_solve(*REF.lu_factor(mats), rhs)
    scale = np.abs(x_ref).max() + 1e-300
    for name in BACKENDS:
        be = get_backend(name)
        x = be.lu_solve(*be.lu_factor(mats), rhs)
        assert np.abs(x - x_ref).max() / scale < 1e-9, name


# ---------------------------------------------------------------------------
# fused chemistry rates parity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", BACKENDS)
@pytest.mark.parametrize("mech_fn", [h2_o2_mechanism, drm19_like_mechanism])
class TestRatesParity:
    def test_wdot_matches_generated_kernel(self, name, mech_fn):
        from repro.chem.codegen import compile_batched_kernels

        mech = mech_fn()
        be = get_backend(name)
        kernel = be.rates_kernel(rate_tables(mech))
        rng = _rng(3)
        T = rng.uniform(1200.0, 1800.0, 5)
        C = rng.uniform(0.05, 1.0, (5, mech.n_species))
        kf, kr = kernel.rate_constants(T)
        got = kernel.wdot(kf, kr, C)
        want = compile_batched_kernels(mech).rates(T, C)
        scale = np.abs(want).max() + 1e-300
        assert np.abs(got - want).max() / scale < 1e-12

    def test_wdot_broadcasts_fd_perturbation_stack(self, name, mech_fn):
        """The FD-Jacobian shape: (n, B, n) leading-axis broadcasting."""
        mech = mech_fn()
        be = get_backend(name)
        kernel = be.rates_kernel(rate_tables(mech))
        rng = _rng(4)
        n = mech.n_species
        T = rng.uniform(1200.0, 1800.0, 3)
        C = rng.uniform(0.05, 1.0, (n, 3, n))  # stacked perturbed copies
        kf, kr = kernel.rate_constants(T)
        got = kernel.wdot(kf, kr, C)
        assert got.shape == (n, 3, n)
        ref_kernel = REF.rates_kernel(rate_tables(mech))
        want = ref_kernel.wdot(kf, kr, C)
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
#: which shrink ``numpy_backend._SWEEP_BUDGET`` leave the reference alone.
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


@pytest.mark.parametrize("name", BACKENDS)
class TestTallyParity:
    def test_2way_exact_on_random_data(self, name):
        from repro.similarity.gemmtally import pack_alleles

        be = get_backend(name)
        rng = _rng(11)
        data = rng.integers(0, 3, size=(9, 130))  # 3 states, 3 words
        packed = pack_alleles(data, n_states=3)
        got = be.popcount_tallies_2way(packed.words)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got,
                                      _reference_tallies_2way(packed.words))

    def test_2way_all_missing_column(self, name):
        """Vectors whose fields all fall outside [0, n_states) tally zero."""
        from repro.similarity.gemmtally import pack_alleles

        be = get_backend(name)
        rng = _rng(12)
        data = rng.integers(0, 2, size=(6, 70))
        data[2, :] = 9  # entirely missing vector: no state plane bits
        packed = pack_alleles(data, n_states=2)
        counts = be.popcount_tallies_2way(packed.words)
        assert (counts[:, :, 2, :] == 0).all()
        assert (counts[:, :, :, 2] == 0).all()

    def test_2way_constant_column(self, name):
        """A constant vector pairs its full field count with itself."""
        from repro.similarity.gemmtally import pack_alleles

        be = get_backend(name)
        m = 97
        data = np.zeros((4, m), dtype=np.int64)
        data[1, :] = 1
        packed = pack_alleles(data, n_states=2)
        counts = be.popcount_tallies_2way(packed.words)
        assert counts[0, 0, 0, 0] == m       # all-zero vs itself in state 0
        assert counts[1, 1, 1, 1] == m       # all-one vs itself in state 1
        assert counts[0, 1, 0, 1] == m       # cross-state pairing
        assert counts[1, 0, 0, 0] == 0       # vector 0 never in state 1
        np.testing.assert_array_equal(counts,
                                      _reference_tallies_2way(packed.words))

    def test_3way_exact_on_random_data(self, name):
        from repro.similarity.gemmtally import (
            einsum_tallies_3way,
            pack_alleles,
        )

        be = get_backend(name)
        rng = _rng(13)
        data = rng.integers(0, 2, size=(5, 80))
        packed = pack_alleles(data, n_states=2)
        got = be.popcount_tallies_3way(packed.words)
        np.testing.assert_array_equal(got, einsum_tallies_3way(data))

    def test_2way_word_block_chunking(self, name, monkeypatch):
        """A small sweep budget chunks both kernels and stays exact.

        At 64 elements the 2-way sweep takes one row per block and splits
        its words, and the 3-way sweep takes one j row and one word per
        block; at 512 the 2-way row blocks hold several full-width rows.
        """
        from repro.similarity.gemmtally import pack_alleles

        import repro.backend.numpy_backend as nb

        be = get_backend(name)
        rng = _rng(14)
        data = rng.integers(0, 2, size=(8, 64 * 7 + 3))
        packed = pack_alleles(data, n_states=2)
        want2 = _reference_tallies_2way(packed.words)
        want3 = _parent_tallies_3way(packed.words)
        for budget in (64, 512):
            monkeypatch.setattr(nb, "_SWEEP_BUDGET", budget)
            _assert_same_tallies(be.popcount_tallies_2way(packed.words),
                                 want2, f"2-way, budget {budget}")
            _assert_same_tallies(be.popcount_tallies_3way(packed.words),
                                 want3, f"3-way, budget {budget}")


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 7),
    m=st.integers(1, 150),
    n_states=st.integers(2, 3),
    seed=st.integers(0, 2**31 - 1),
)
def test_tally_2way_parity_property(n, m, n_states, seed):
    from repro.similarity.gemmtally import einsum_tallies_2way, pack_alleles

    rng = _rng(seed)
    # include out-of-range values: missing fields must stay excluded
    data = rng.integers(0, n_states + 1, size=(n, m))
    packed = pack_alleles(data, n_states=n_states)
    want = einsum_tallies_2way(data, n_states=n_states)
    for name in BACKENDS:
        got = get_backend(name).popcount_tallies_2way(packed.words)
        np.testing.assert_array_equal(got, want, err_msg=name)


@st.composite
def _allele_words(draw):
    """Packed planes for n in 1..9, S in 1..3, m in 1..200, with missing
    values (-1 and S fall outside every state) and, sometimes, one vector
    whose fields are all missing."""
    from repro.similarity.gemmtally import pack_alleles

    n = draw(st.integers(1, 9))
    n_states = draw(st.integers(1, 3))
    m = draw(st.integers(1, 200))
    rng = _rng(draw(st.integers(0, 2**31 - 1)))
    data = rng.integers(-1, n_states + 1, size=(n, m))
    missing = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    if missing is not None:
        data[missing] = -1
    return pack_alleles(data, n_states=n_states).words


@settings(max_examples=60, deadline=None)
@given(words=_allele_words())
def test_tally_kernels_match_parent_kernels(words):
    """The symmetric kernels equal the full sweeps they replaced, entry for
    entry, degenerate index tuples included."""
    want2 = _parent_tallies_2way(words)
    want3 = _parent_tallies_3way(words)
    for name in BACKENDS:
        be = get_backend(name)
        _assert_same_tallies(be.popcount_tallies_2way(words), want2, name)
        _assert_same_tallies(be.popcount_tallies_3way(words), want3, name)


# ---------------------------------------------------------------------------
# pairwise forces parity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", BACKENDS)
class TestForcesParity:
    def test_short_range_matches_naive_loop(self, name):
        from repro.particles.pm import short_range_forces

        rng = _rng(15)
        box, rs = 10.0, 0.8
        x = rng.uniform(0, box, (20, 3))
        masses = rng.uniform(0.5, 2.0, 20)
        want = short_range_forces(x, masses, box, rs=rs, vectorized=False)
        got = get_backend(name).pairwise_forces(
            x, masses, G=1.0, rs=rs, cutoff=5.0 * rs, box_size=box)
        scale = np.abs(want).max() + 1e-300
        assert np.abs(got - want).max() / scale < 1e-9

    def test_direct_matches_naive_loop(self, name):
        from repro.particles.pm import direct_forces

        rng = _rng(16)
        x = rng.uniform(0, 4.0, (15, 3))
        masses = rng.uniform(0.5, 2.0, 15)
        want = direct_forces(x, masses, vectorized=False)
        got = get_backend(name).pairwise_forces(x, masses, G=1.0)
        scale = np.abs(want).max() + 1e-300
        assert np.abs(got - want).max() / scale < 1e-9

    def test_forces_edge_cases(self, name):
        be = get_backend(name)
        x1 = np.array([[1.0, 2.0, 3.0]])
        m1 = np.array([1.0])
        assert np.array_equal(be.pairwise_forces(x1, m1, G=1.0),
                              np.zeros((1, 3)))
        # coincident particles are dropped, not divided by zero
        x2 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        m2 = np.ones(2)
        got = be.pairwise_forces(x2, m2, G=1.0, rs=0.5, cutoff=2.0,
                                 box_size=5.0)
        assert np.isfinite(got).all()
        assert np.array_equal(got, np.zeros((2, 3)))

    def test_newtons_third_law(self, name):
        rng = _rng(17)
        x = rng.uniform(0, 6.0, (12, 3))
        masses = rng.uniform(0.5, 2.0, 12)
        got = get_backend(name).pairwise_forces(
            x, masses, G=1.0, rs=0.9, cutoff=4.5, box_size=6.0)
        assert np.abs(got.sum(axis=0)).max() < 1e-10


# ---------------------------------------------------------------------------
# end-to-end: integration parity and checkpoint/restore across backends
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", BACKENDS)
class TestIntegrationAcrossBackends:
    def test_chemistry_integration_matches_reference(self, name):
        from repro.apps.pele import (
            PeleConfig,
            chemistry_field,
            integrate_chemistry_batched,
        )

        cfg = PeleConfig(mechanism=h2_o2_mechanism())
        T, C0 = chemistry_field(cfg, 6, seed=1)
        ref = integrate_chemistry_batched(cfg, T, C0, 1e-7, backend="numpy")
        got = integrate_chemistry_batched(cfg, T, C0, 1e-7, backend=name)
        scale = np.abs(ref.y).max() + 1e-300
        assert np.abs(got.y - ref.y).max() / scale < 1e-6

    def test_mid_integration_checkpoint_restore(self, name):
        """Pause/snapshot/restore under a non-default backend is exact."""
        from repro.apps.pele import PeleConfig, chemistry_field
        from repro.chem.codegen import compile_batched_kernels
        from repro.ode import BatchedBdfIntegrator

        cfg = PeleConfig(mechanism=h2_o2_mechanism())
        T, C0 = chemistry_field(cfg, 5, seed=2)
        kernels = compile_batched_kernels(cfg.mechanism)
        be = get_backend(name)
        kernel = be.rates_kernel(rate_tables(cfg.mechanism))
        kf, kr = kernel.rate_constants(T)

        def rhs(t, conc):
            return kernel.wdot(kf, kr, np.maximum(conc, 0.0))

        def jac(t, conc):
            return kernels.jacobian(T, np.maximum(conc, 0.0))

        def integrator():
            return BatchedBdfIntegrator(rhs, jac=jac, backend=be)

        base = integrator()
        uninterrupted = integrator()
        state = base.start(C0, 0.0, 1e-7)
        ref_state = uninterrupted.start(C0, 0.0, 1e-7)
        for _ in range(4):
            base.step_round(state)
        snap = state.snapshot()

        resumed = integrator().start(C0, 0.0, 1e-7)
        resumed_state = resumed  # BatchedBdfState
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

    def test_snapshot_version_guard(self, name):
        """v1 snapshots (no held inverse) are refused, not misread."""
        from repro.resilience.snapshot import SnapshotError

        from repro.chem.mechanism import h2_o2_mechanism as mech_fn
        from repro.apps.pele import PeleConfig, chemistry_field
        from repro.ode import BatchedBdfIntegrator

        cfg = PeleConfig(mechanism=mech_fn())
        T, C0 = chemistry_field(cfg, 3, seed=3)
        be = get_backend(name)
        kernel = be.rates_kernel(rate_tables(cfg.mechanism))
        kf, kr = kernel.rate_constants(T)
        integ = BatchedBdfIntegrator(
            lambda t, conc: kernel.wdot(kf, kr, np.maximum(conc, 0.0)),
            backend=be)
        state = integ.start(C0, 0.0, 1e-8)
        snap = state.snapshot()
        stale = type(snap)(kind=snap.kind, version=1, payload=snap.payload)
        with pytest.raises(SnapshotError):
            state.restore(stale)

"""GEMM-tally engine: exact equivalence with the naive tally loops.

The whole point of the CoMet recast is that the bit-packed popcount
sweeps and the batched einsum contractions are *not approximations*: the
tallies are integers and every path must agree exactly with the
brute-force loops, including on degenerate inputs (all-one-state columns,
missing-data columns, single vectors).  Hypothesis drives random allele
matrices through all of it.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.similarity import (
    N_STATES,
    ccc_similarity,
    cooccurrence_counts,
    cooccurrence_counts_bruteforce,
    einsum_tallies_2way,
    pack_alleles,
    popcount_tallies_2way,
    random_allele_data,
    tally_2way,
    tally_3way,
    threeway_counts,
    threeway_counts_bruteforce,
    threeway_similarity,
)
from repro.similarity.gemmtally import (
    tally_marginal_checksums,
    verify_tallies,
)

#: -1 encodes a missing observation; it belongs to no allele state.
MISSING = -1


def allele_matrices(max_n: int, max_m: int, *, missing: bool = True):
    """Random allele matrices, with missing entries and degenerate columns."""
    values = st.integers(MISSING if missing else 0, N_STATES - 1)

    def build(draw):
        n = draw(st.integers(1, max_n))
        m = draw(st.integers(1, max_m))
        data = np.array(
            draw(st.lists(st.lists(values, min_size=m, max_size=m),
                          min_size=n, max_size=n)),
            dtype=np.int8,
        )
        # force some degenerate columns: constant-state and all-missing
        for col_value in draw(st.lists(values, max_size=3)):
            col = draw(st.integers(0, m - 1))
            data[:, col] = col_value
        return data

    return st.composite(lambda draw: build(draw))()


class TestTwoWayEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(allele_matrices(10, 80))
    def test_popcount_and_einsum_match_bruteforce_exactly(self, data):
        expected = cooccurrence_counts_bruteforce(data)
        for method in ("popcount", "einsum"):
            got = tally_2way(data, method=method)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, expected, err_msg=method)

    @settings(max_examples=15, deadline=None)
    @given(allele_matrices(8, 60))
    def test_similarity_identical_on_both_paths(self, data):
        np.testing.assert_array_equal(
            ccc_similarity(data, use_gemm_tally=True),
            ccc_similarity(data, use_gemm_tally=False),
        )

    def test_dispatcher_ablation_flag(self):
        rng = np.random.default_rng(7)
        data = rng.integers(0, N_STATES, (6, 40), dtype=np.int8)
        engine = cooccurrence_counts(data, use_gemm_tally=True)
        naive = cooccurrence_counts(data, use_gemm_tally=False)
        assert engine.dtype == naive.dtype == np.int64
        np.testing.assert_array_equal(engine, naive)

    def test_unknown_method_rejected(self):
        data = np.zeros((2, 8), dtype=np.int8)
        with pytest.raises(ValueError):
            tally_2way(data, method="tensor")
        with pytest.raises(ValueError):
            tally_3way(data, method="tensor")


class TestThreeWayEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(allele_matrices(5, 30))
    def test_popcount_and_einsum_match_bruteforce_exactly(self, data):
        expected = threeway_counts_bruteforce(data)
        for method in ("popcount", "einsum"):
            got = tally_3way(data, method=method)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, expected, err_msg=method)

    @settings(max_examples=8, deadline=None)
    @given(allele_matrices(4, 24))
    def test_similarity_identical_on_both_paths(self, data):
        np.testing.assert_array_equal(
            threeway_similarity(data, use_gemm_tally=True),
            threeway_similarity(data, use_gemm_tally=False),
        )

    def test_dispatcher_ablation_flag(self):
        rng = np.random.default_rng(11)
        data = rng.integers(0, N_STATES, (4, 20), dtype=np.int8)
        engine = threeway_counts(data, use_gemm_tally=True)
        naive = threeway_counts(data, use_gemm_tally=False)
        assert engine.dtype == naive.dtype == np.int64
        np.testing.assert_array_equal(engine, naive)


class TestPacking:
    def test_pad_bits_are_zero(self):
        """Word padding must never leak into the tallies."""
        data = np.ones((3, 65), dtype=np.int8)  # one bit into the 2nd word
        packed = pack_alleles(data)
        assert packed.n_words == 2
        counts = popcount_tallies_2way(packed)
        assert counts[1, 1].max() == 65

    def test_all_missing_matrix_tallies_to_zero(self):
        data = np.full((4, 32), MISSING, dtype=np.int8)
        assert tally_2way(data).sum() == 0
        assert tally_3way(data).sum() == 0
        np.testing.assert_array_equal(
            tally_2way(data), cooccurrence_counts_bruteforce(data)
        )

    def test_counts_partition_fields_without_missing(self):
        rng = np.random.default_rng(3)
        data = rng.integers(0, N_STATES, (7, 129), dtype=np.int8)
        counts = tally_2way(data)
        np.testing.assert_array_equal(counts.sum(axis=(0, 1)), 129)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            pack_alleles(np.zeros(8, dtype=np.int8))


class TestOutputContract:
    """The invariants the ``comet_tally`` benchmark checks on every unit,
    pinned on seeded blocks of the same widths (no field is missing)."""

    BLOCKS = ((48, 130), (24, 2048))

    @pytest.fixture(scope="class", params=BLOCKS, ids=lambda b: "x".join(
        map(str, b)))
    def tallies(self, request):
        data = random_allele_data(*request.param, seed=sum(request.param))
        return data, tally_2way(data), tally_3way(data)

    def test_3way_invariant_under_joint_permutation(self, tallies):
        _, _, c3 = tallies
        for perm in itertools.permutations(range(3)):
            axes = perm + tuple(3 + p for p in perm)
            assert np.array_equal(c3.transpose(axes), c3), perm

    def test_3way_marginal_is_the_2way_tally(self, tallies):
        data, c2, c3 = tallies
        assert np.array_equal(c2, einsum_tallies_2way(data))
        assert (c3.sum(axis=2) == c2[..., None]).all()

    def test_2way_passes_its_marginal_checksums(self, tallies):
        data, c2, _ = tallies
        row, col = tally_marginal_checksums(data)
        report = verify_tallies(c2, row, col, correct=False,
                                raise_on_detect=False)
        assert report.detected == 0
        assert report.checked > 0

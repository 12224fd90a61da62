"""CoMet substrate: CCC similarity metrics via mixed-precision GEMM.

The tally engine lives in :mod:`repro.similarity.gemmtally` (bit-packed
popcount word sweeps + batched einsum/matmul contractions); the 2-way and
3-way CCC metrics in :mod:`~repro.similarity.ccc` and
:mod:`~repro.similarity.threeway` run on it by default, with the naive
Python tally loops kept as the ``use_gemm_tally=False`` ablation.
"""

from repro.similarity.ccc import (
    N_STATES,
    ccc_from_counts,
    ccc_gemm_flops,
    ccc_kernel_spec,
    ccc_similarity,
    cooccurrence_counts,
    cooccurrence_counts_bruteforce,
    cooccurrence_counts_gemm,
    random_allele_data,
)
from repro.similarity.gemmtally import (
    PackedAlleles,
    einsum_tallies_2way,
    einsum_tallies_3way,
    gemm_tally_kernel_spec,
    gemmtally_kernel_specs,
    pack_alleles,
    pack_kernel_spec,
    popcount_tallies_2way,
    popcount_tallies_3way,
    tally_2way,
    tally_3way,
)
from repro.similarity.threeway import (
    threeway_counts,
    threeway_counts_bruteforce,
    threeway_counts_gemm,
    threeway_metric,
    threeway_similarity,
)

__all__ = [
    "N_STATES",
    "PackedAlleles",
    "ccc_from_counts",
    "ccc_gemm_flops",
    "ccc_kernel_spec",
    "ccc_similarity",
    "cooccurrence_counts",
    "cooccurrence_counts_bruteforce",
    "cooccurrence_counts_gemm",
    "einsum_tallies_2way",
    "einsum_tallies_3way",
    "gemm_tally_kernel_spec",
    "gemmtally_kernel_specs",
    "pack_alleles",
    "pack_kernel_spec",
    "popcount_tallies_2way",
    "popcount_tallies_3way",
    "random_allele_data",
    "tally_2way",
    "tally_3way",
    "threeway_counts",
    "threeway_counts_bruteforce",
    "threeway_counts_gemm",
    "threeway_metric",
    "threeway_similarity",
]

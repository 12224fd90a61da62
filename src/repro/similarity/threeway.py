"""3-way CCC: CoMet's higher-order comparative-genomics method.

CoMet's distinguishing capability beyond 2-way similarity is the 3-way
CCC, which scores *triples* of vectors by the joint frequency of allele
state combinations — epistasis-style interactions no pairwise metric can
see.  The counts reduce to one fused (n²×m)·(m×n) GEMM per state triple
(the Hadamard pair plane contracted against the pivot plane), or to
three-operand popcount sweeps on the bit-packed planes — both provided by
:mod:`repro.similarity.gemmtally`, which is exactly how CoMet maps the
3-way metric onto the matrix engines.

Everything verified against a brute-force triple loop (kept as the
``use_gemm_tally=False`` ablation); the FP16 path is exact for the same
reason as the 2-way metric.
"""

from __future__ import annotations

import numpy as np

from repro.similarity import gemmtally
from repro.similarity.ccc import N_STATES


def threeway_counts_bruteforce(data: np.ndarray) -> np.ndarray:
    """counts[s, t, u, i, j, k] over vector triples (i < j < k not enforced).

    The naive-tally ablation; fields outside [0, N_STATES) are missing.
    Returns int64 counts, the dtype of every engine path.
    """
    n, m = data.shape
    counts = np.zeros((N_STATES,) * 3 + (n,) * 3, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for f in range(m):
                    s, t, u = data[i, f], data[j, f], data[k, f]
                    if (0 <= s < N_STATES and 0 <= t < N_STATES
                            and 0 <= u < N_STATES):
                        counts[s, t, u, i, j, k] += 1
    return counts


def threeway_counts_gemm(data: np.ndarray, *, fp16: bool = False) -> np.ndarray:
    """3-way counts via the fused per-state-triple GEMMs.

    One (n²×m)·(m×n) contraction per (s, t, u) state triple — the batch
    axis is the S³ state combinations, never the vector triples.  ``fp16``
    quantizes the one-hot operands through float16 first (lossless for
    0/1 entries, the paper's mixed-precision claim).
    """
    dtype = np.float16 if fp16 else np.float64
    return gemmtally.einsum_tallies_3way(data, n_states=N_STATES, dtype=dtype)


def threeway_counts(data: np.ndarray, *, use_gemm_tally: bool = True,
                    method: str = "popcount") -> np.ndarray:
    """All-triples tallies: the GEMM-recast engine or the naive loop."""
    if use_gemm_tally:
        return gemmtally.tally_3way(data, n_states=N_STATES, method=method)
    return threeway_counts_bruteforce(data)


def threeway_metric(counts: np.ndarray, n_fields: int) -> np.ndarray:
    """Scalar 3-way similarity per triple: max over state combinations of
    joint frequency x marginal deviations (the 2-way form lifted)."""
    f = counts / n_fields  # (S,S,S,n,n,n)
    f_i = f.sum(axis=(1, 2))  # (S, n, n, n) marginals
    f_j = f.sum(axis=(0, 2))
    f_k = f.sum(axis=(0, 1))
    metric = (
        f
        * (1.0 - f_i[:, None, None])
        * (1.0 - f_j[None, :, None])
        * (1.0 - f_k[None, None, :])
    )
    return metric.max(axis=(0, 1, 2))


def threeway_similarity(data: np.ndarray, *, use_gemm_tally: bool = True,
                        method: str = "popcount") -> np.ndarray:
    if use_gemm_tally:
        counts = threeway_counts(data, method=method)
    else:
        counts = threeway_counts_bruteforce(data)
    return threeway_metric(counts, data.shape[1])

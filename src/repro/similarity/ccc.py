"""CoMet's Custom Correlation Coefficient via GEMM (§3.6).

CoMet finds similarity between data vectors — e.g. genomics samples over
two-bit allele states.  The 2-way CCC between vectors u, v counts the
co-occurrence of allele states and normalizes; the crucial implementation
fact is that *all* pairwise co-occurrence counts over a dataset reduce to
one matrix product of one-hot-encoded data:

    N[s, t][i, j] = Σ_k  1[u_i(k) = s] · 1[v_j(k) = t]

which is "overwhelmingly dominated by the mixed precision GEMM matrix
product operation".  Counts fit in small integers, so FP16/Int8 tensor
cores compute them exactly — the reduced-precision trick of the paper.

The tallies themselves now come from :mod:`repro.similarity.gemmtally`
(bit-packed popcount word sweeps, or one batched matmul over the one-hot
state planes); the naive pair loop survives as the
``use_gemm_tally=False`` ablation and as the exactness reference.  Fields
holding values outside ``[0, N_STATES)`` are treated as missing and are
excluded from every tally, on both paths.
"""

from __future__ import annotations


import numpy as np

from repro.gpu.kernel import KernelSpec
from repro.hardware.gpu import Precision
from repro.similarity import gemmtally

#: Number of allele states in 2-bit genomics encoding.
N_STATES = 2


def random_allele_data(n_vectors: int, n_fields: int, *, seed: int = 0) -> np.ndarray:
    """Binary allele matrix: (n_vectors, n_fields) of {0, 1}."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, N_STATES, size=(n_vectors, n_fields), dtype=np.int8)


def one_hot(data: np.ndarray) -> np.ndarray:
    """One-hot encode to shape (n_vectors, N_STATES, n_fields)."""
    n, m = data.shape
    out = np.zeros((n, N_STATES, m), dtype=np.float64)
    for s in range(N_STATES):
        out[:, s, :] = data == s
    return out


def cooccurrence_counts_gemm(data: np.ndarray, *, fp16: bool = False,
                             int8: bool = False) -> np.ndarray:
    """All-pairs co-occurrence counts via one batched GEMM contraction.

    Returns counts of shape (N_STATES, N_STATES, n, n):
    ``counts[s, t, i, j]`` = #fields where vector i is in state s and
    vector j in state t.  With ``fp16`` the one-hot operands are cast
    through float16 first (the mixed-precision path), exact for 0/1
    operands and counts below 2¹¹.  With ``int8`` the operands go through
    int8 with int32 accumulation (the CoMet Int8 path, §3.6) — exact for
    any count below 2³¹.
    """
    if fp16 and int8:
        raise ValueError("choose one of fp16 / int8")
    if int8:
        p = gemmtally._state_planes(data, N_STATES, np.int8).astype(np.int32)
        acc = p[:, None] @ p.transpose(0, 2, 1)[None]  # (S, S, n, n) int32
        return acc.astype(np.float64)
    dtype = np.float16 if fp16 else np.float64
    p = gemmtally._state_planes(data, N_STATES, dtype).astype(np.float64)
    return p[:, None] @ p.transpose(0, 2, 1)[None]  # the batched GEMM


def cooccurrence_counts_bruteforce(data: np.ndarray) -> np.ndarray:
    """Reference pair-loop implementation (the naive-tally ablation).

    Returns int64 counts, the dtype of every engine path.
    """
    n, m = data.shape
    counts = np.zeros((N_STATES, N_STATES, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            for k in range(m):
                s, t = data[i, k], data[j, k]
                if 0 <= s < N_STATES and 0 <= t < N_STATES:
                    counts[s, t, i, j] += 1
    return counts


def cooccurrence_counts(data: np.ndarray, *, use_gemm_tally: bool = True,
                        method: str = "popcount") -> np.ndarray:
    """All-pairs tallies: the GEMM-recast engine, or the naive pair loop.

    The default runs :func:`repro.similarity.gemmtally.tally_2way`
    (``method`` selects bit-packed popcount sweeps or the batched einsum
    contraction); ``use_gemm_tally=False`` is the O(n²·m) Python-loop
    ablation used to measure the recast's speedup.
    """
    if use_gemm_tally:
        return gemmtally.tally_2way(data, n_states=N_STATES, method=method)
    return cooccurrence_counts_bruteforce(data)


def ccc_from_counts(counts: np.ndarray, n_fields: int) -> np.ndarray:
    """2-way CCC matrix from co-occurrence counts.

    The CoMet 2-way metric for each (i, j) and state pair (s, t):
    ``f_st · (1 − f_s·)·(1 − f_·t)`` with f the normalized frequencies;
    we report the maximum over state pairs, a scalar similarity in [0, 1].
    """
    f_st = counts / n_fields  # (S, S, n, n)
    f_s = f_st.sum(axis=1)  # (S, n, n): marginal of i's state
    f_t = f_st.sum(axis=0)  # (S, n, n): marginal of j's state
    metric = f_st * (1.0 - f_s[:, None]) * (1.0 - f_t[None, :])
    return metric.max(axis=(0, 1))


def ccc_similarity(data: np.ndarray, *, use_gemm_tally: bool = True,
                   method: str = "popcount") -> np.ndarray:
    """End-to-end 2-way CCC over all vector pairs.

    ``use_gemm_tally`` selects the bit-packed/batched-GEMM tally engine
    (default) or the naive loop ablation.
    """
    if use_gemm_tally:
        counts = cooccurrence_counts(data, method=method)
    else:
        counts = cooccurrence_counts_bruteforce(data)
    return ccc_from_counts(counts, data.shape[1])


# ---------------------------------------------------------------------------
# Performance layer
# ---------------------------------------------------------------------------


def ccc_gemm_flops(n_vectors: int, n_fields: int) -> float:
    """FLOPs of the count GEMMs: N_STATES² products of (n×m)·(m×n)."""
    return N_STATES**2 * 2.0 * float(n_vectors) ** 2 * n_fields


def ccc_kernel_spec(n_vectors: int, n_fields: int, *,
                    efficiency: float = 0.7) -> KernelSpec:
    """The mixed-precision count GEMM as one kernel launch.

    CoMet's co-designed rocBLAS routines reached a high fraction of the
    FP16 matrix peak; counts accumulate in FP32 (mixed FP16/FP32).
    """
    itemsize = 2  # FP16 operands
    return KernelSpec(
        name=f"ccc_gemm_{n_vectors}x{n_fields}",
        flops=ccc_gemm_flops(n_vectors, n_fields) / efficiency,
        bytes_read=float(2 * N_STATES * n_vectors * n_fields * itemsize),
        bytes_written=float(N_STATES**2 * n_vectors * n_vectors * 4),
        threads=max(n_vectors * n_vectors, 64),
        precision=Precision.FP16,
        uses_matrix_engine=True,
        registers_per_thread=128,
        lds_per_workgroup=16 * 1024,  # double-buffered FP16 panels stay small
        workgroup_size=256,
    )

"""GEMM-recast CCC/DUO tally engine: bit-packed popcounts + batched GEMMs.

CoMet's 6.71 EF number (§3.6) rests on one algorithmic move: the
comparative-genomics tallies — "how many fields have vector i in allele
state s while vector j is in state t" — are *contractions over the field
axis*, so all O(n²) vector pairs reduce to a handful of matrix products
of the per-state indicator planes.  This module implements both machine
formulations of that move:

* **bit-packed popcount sweeps** (the DUO/CCC "2-bit GEMM"): each state's
  indicator row is packed 64 fields per ``uint64`` word; the (s, t) tally
  matrix is ``popcount(A_s[i] & A_t[j])`` summed over words.  Integer
  exact by construction, with a 64× data compression over one-hot bytes.
  The sweeps run in the *occupancy basis* X₀ = ``occ`` (the fields a
  vector does not miss), X_s = P_s for s ≥ 1: state 0 is
  ``occ − Σ_{s≥1} P_s``, so one in-place inclusion–exclusion per state
  axis turns the basis tallies into state tallies, and a complete
  vector's ``occ`` is the ``n_fields`` mask, whose X₀ terms reduce to
  lower-order tallies.  A block without missing fields therefore sweeps
  (S − 1)² plane pairs (2-way) or (S − 1)³ plane triples (3-way, plus
  one (S − 1)-plane 2-way Gram) where the state tallies have S² and S³.
* **batched einsum/matmul contractions** (the FP16/Int8 tensor-core GEMM):
  the (S, n, m) one-hot stack contracts in ONE batched matmul to the full
  (S, S, n, n) tally tensor — one fused contraction per state pair, never
  a Python loop over vector pairs.

The 3-way CCC tallies factor the same way: for each state triple
(s, t, u) the count tensor is ``Σ_m A_s[i,m]·A_t[j,m]·A_u[k,m]``, computed
as one (n²×m)·(m×n) GEMM on the Hadamard pair plane (the masked-GEMM
batching CoMet uses to map 3-way metrics onto matrix engines) or as a
three-operand popcount sweep on the packed words (again in the
occupancy basis).

Fields whose value falls outside ``[0, n_states)`` are treated as missing
(CoMet's sparse-input handling): they belong to no state plane and are
excluded from every tally.

Everything here returns *integer* tallies and is verified exactly against
the naive loops in :mod:`repro.similarity.ccc` / ``threeway``.

Because the tallies are integers, the Huang–Abraham checksums here are
*zero tolerance*: the row/column marginals of each (s, t) count matrix
are recomputed independently through O(n·m) GEMVs (1/n of the tally GEMM
cost), any discrepancy is corruption by definition, and a single flipped
tally is located and corrected exactly (``tally_2way(..., abft=True)``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.kernel import KernelSpec
from repro.hardware.gpu import Precision
from repro.observability.tracer import NULL_TRACER, Tracer
from repro.resilience.abft import AbftReport, ChecksummedGemm, verify_gemm

#: Fields packed per machine word in the popcount path.
WORD_BITS = 64


@dataclass(frozen=True)
class PackedAlleles:
    """Bit-plane encoding of an allele matrix.

    ``words[i, s, w]`` holds fields ``64w .. 64w+63`` of vector i's state-s
    indicator, little-endian within each word.  Padding bits beyond
    ``n_fields`` are zero, so AND/popcount sweeps never overcount.
    """

    words: np.ndarray  # (n_vectors, n_states, n_words) uint64
    n_fields: int

    @property
    def n_words(self) -> int:
        return self.words.shape[2]


def pack_alleles(data: np.ndarray, *, n_states: int = 2) -> PackedAlleles:
    """Pack an (n, m) allele matrix into per-state uint64 bit planes."""
    data = np.asarray(data)
    if data.ndim != 2:
        raise ValueError(f"allele matrix must be 2-D, got shape {data.shape}")
    n, m = data.shape
    planes = data[:, None, :] == np.arange(n_states)[None, :, None]  # (n, S, m)
    packed8 = np.packbits(planes, axis=-1, bitorder="little")  # (n, S, ceil(m/8))
    pad = (-packed8.shape[-1]) % 8
    if pad:
        packed8 = np.pad(packed8, [(0, 0), (0, 0), (0, pad)])
    words = packed8.view(np.uint64)
    return PackedAlleles(words=np.ascontiguousarray(words), n_fields=m)


#: Byte-popcount lookup behind :func:`_popcount_words_lut`.
POP8 = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


def _popcount_words_lut(words: np.ndarray) -> np.ndarray:
    """Per-word popcount by byte lookup (the numpy < 2.0 fallback)."""
    return POP8[words.view(np.uint8)].reshape(*words.shape, 8).sum(axis=-1)


#: Per-word popcount: the hardware instruction where numpy has it.
popcount_words = getattr(np, "bitwise_count", _popcount_words_lut)

#: Element budget of one AND/popcount temporary in the tally kernels
#: (2 MiB of uint64 words): large enough to amortise the numpy call
#: overhead, small enough to stay cache-resident, and the row blocks it
#: induces are what let the 2-way sweep skip the lower triangle.
_SWEEP_BUDGET = 1 << 18


def _sweep_gram(flat: np.ndarray) -> np.ndarray:
    """Symmetric popcount Gram matrix ``popcount(flat[r] & flat[q])``.

    Sweeps the upper triangle of the (N, N) row-pair matrix in row blocks
    (each block against every row at or below its first row, words
    chunked to the sweep budget) and mirrors each block with ``.T``.
    The 2-way kernel sweeps one Gram, the 3-way kernel one per pivot row.
    """
    N, W = flat.shape
    counts = np.empty((N, N), dtype=np.int64)
    r0 = 0
    while r0 < N:
        # rows r0:r1 against every row >= r0; the rest is the mirror
        tri = flat[r0:]
        r1 = min(N, r0 + max(1, _SWEEP_BUDGET // (len(tri) * W)))
        rows = flat[r0:r1]
        wb = max(1, _SWEEP_BUDGET // (len(rows) * len(tri)))
        blk = np.zeros((len(rows), len(tri)), dtype=np.int64)
        for w0 in range(0, W, wb):
            blk += popcount_words(
                rows[:, None, w0:w0 + wb] & tri[None, :, w0:w0 + wb]
            ).sum(axis=-1, dtype=np.int64)
        counts[r0:r1, r0:] = blk
        counts[r0:, r0:r1] = blk.T
        r0 = r1
    return counts


def _occupancy_basis(packed: PackedAlleles) -> tuple[np.ndarray, list]:
    """The word rows a tally sweep needs, and where each basis plane sits.

    The occupancy basis is X₀ = ``occ`` (the OR of the state planes: the
    fields a vector does not miss) and X_s = P_s for s ≥ 1.  Returns
    ``rows`` = [U, P₁ rows, …, P_{S−1} rows, occ rows of the incomplete
    vectors], where U is the ``n_fields`` mask, and one selector per
    basis plane that picks plane a's row for vectors 0..n−1 from an axis
    of the row Gram/triple tensor.  A complete vector's ``occ`` is U, so
    its X₀ row is the shared row 0: ``popcount(U & Y) = popcount(Y)``
    turns every X₀ term of a complete vector into a lower-order tally
    (down to ``n_fields`` itself), and only the S − 1 state planes plus
    the incomplete vectors' ``occ`` rows are swept.
    """
    words = packed.words
    n, S, W = words.shape
    m = packed.n_fields
    full = np.zeros(W, dtype=np.uint64)
    full[:m // WORD_BITS] = ~np.uint64(0)
    if m % WORD_BITS:
        full[m // WORD_BITS] = (1 << (m % WORD_BITS)) - 1
    occ = np.bitwise_or.reduce(words, axis=1)  # (n, W)
    incomplete = np.flatnonzero((occ != full).any(axis=1))
    planes = words[:, 1:].transpose(1, 0, 2).reshape((S - 1) * n, W)
    rows = np.concatenate([full[None], planes, occ[incomplete]])
    if len(incomplete):
        x0 = np.zeros(n, dtype=np.intp)
        x0[incomplete] = 1 + (S - 1) * n + np.arange(len(incomplete))
    else:
        x0 = slice(0, 1)  # every vector's X₀ row is U: broadcast it
    return rows, [x0] + [slice(1 + s * n, 1 + (s + 1) * n)
                         for s in range(S - 1)]


def _basis_to_states(counts: np.ndarray, ways: int) -> np.ndarray:
    """Occupancy-basis tallies → state tallies, in place.

    P₀ = X₀ − Σ_{s≥1} X_s, and the tallies are linear in each plane, so
    one inclusion–exclusion per state axis (``c[0] -= c[1:].sum(0)``,
    subtracted plane by plane to skip the strided reduction) converts the
    basis tensor to the state tensor, integer exact.
    """
    for ax in range(ways):
        head = (slice(None),) * ax
        for s in range(1, counts.shape[0]):
            counts[head + (0,)] -= counts[head + (s,)]
    return counts


def popcount_tallies_2way(packed: PackedAlleles) -> np.ndarray:
    """All-pairs 2-way tallies by popcount-on-AND word sweeps.

    Returns int64 ``counts[s, t, i, j]`` = #fields with vector i in state s
    and vector j in state t.  The sweep runs in the occupancy basis
    (:func:`_occupancy_basis`): one symmetric Gram of the S − 1 state
    planes, the ``n_fields`` mask U and the incomplete vectors' occupancy
    rows, so a block without missing fields sweeps (S − 1)² plane pairs
    where the state tally has S².  The basis tallies are gathered from
    the Gram and converted by inclusion–exclusion.  Integer exact.
    """
    n, S, _ = packed.words.shape
    rows, sel = _occupancy_basis(packed)
    gram = _sweep_gram(rows)
    counts = np.empty((S, S, n, n), dtype=np.int64)
    for a in range(S):
        for b in range(S):
            counts[a, b] = gram[sel[a]][:, sel[b]]
    return _basis_to_states(counts, 2)


def popcount_tallies_3way(packed: PackedAlleles) -> np.ndarray:
    """All-triples 3-way tallies by three-operand popcount sweeps.

    Returns int64 ``counts[s, t, u, i, j, k]``, the full dense tensor.
    The sweep runs over the occupancy-basis rows (:func:`_occupancy_basis`)
    and fills their fully symmetric triple tensor: a pivot row r loops
    over the rows, the Gram of ``rows[r] & rows[r:]`` gives every triple
    whose smallest row is r, and it is copied into the three rotations
    that put r first.  The pivot U is the rows' 2-way Gram, which the
    complete vectors' X₀ terms need.  A block without missing fields thus
    sweeps (S − 1)³ plane triples (plus that one Gram) where the state
    tally has S³; the basis tallies are gathered from the triple tensor
    and converted by inclusion–exclusion.  Integer exact.
    """
    n, S, _ = packed.words.shape
    rows, sel = _occupancy_basis(packed)
    N = len(rows)
    triples = np.empty((N, N, N), dtype=np.int64)
    for r in range(N):
        T = _sweep_gram(rows[r] & rows[r:])
        triples[r, r:, r:] = T
        triples[r:, r:, r] = T
        triples[r:, r, r:] = T
    counts = np.empty((S,) * 3 + (n,) * 3, dtype=np.int64)
    for a in range(S):
        for b in range(S):
            ab = triples[sel[a]][:, sel[b]]
            for c in range(S):
                counts[a, b, c] = ab[:, :, sel[c]]
    return _basis_to_states(counts, 3)


def _state_planes(data: np.ndarray, n_states: int, dtype) -> np.ndarray:
    """One-hot stack (S, n, m) in the GEMM operand dtype."""
    planes = (data[None, :, :] == np.arange(n_states)[:, None, None])
    return planes.astype(dtype)


def einsum_tallies_2way(data: np.ndarray, *, n_states: int = 2,
                        dtype=np.float64) -> np.ndarray:
    """All-pairs 2-way tallies as ONE batched matmul contraction.

    The (S, n, m) one-hot stack contracts as
    ``counts[s, t] = P[s] @ P[t].T`` — a single (S·S)-batch GEMM, the
    formulation that runs on the matrix engines.  FP16/FP32 operands give
    exact integer results for tallies below the mantissa bound (2¹¹ for
    FP16), mirroring the paper's mixed-precision claim.  The operands are
    quantized through ``dtype`` and accumulated in FP64 (simulating the
    FP32 accumulators of the real mixed-precision GEMM).
    """
    p = _state_planes(data, n_states, dtype).astype(np.float64)
    acc = p[:, None] @ p.transpose(0, 2, 1)[None]  # (S, S, n, n) batched GEMM
    return np.rint(np.asarray(acc, dtype=np.float64)).astype(np.int64)


def einsum_tallies_3way(data: np.ndarray, *, n_states: int = 2,
                        dtype=np.float64) -> np.ndarray:
    """All-triples 3-way tallies, one fused GEMM per state triple.

    For each (s, t, u) the count tensor ``Σ_m P_s[i,m] P_t[j,m] P_u[k,m]``
    is evaluated as the (n²×m)·(m×n) product of the Hadamard pair plane
    against the pivot plane — einsum's optimal contraction path, and the
    masked-GEMM batching CoMet uses for the 3-way metric.  No loop over
    vectors, only over the S³ state triples.
    """
    p = _state_planes(data, n_states, dtype).astype(np.float64)
    S, n, m = p.shape
    counts = np.empty((S,) * 3 + (n,) * 3, dtype=np.int64)
    for s in range(S):
        for t in range(S):
            pair = (p[s, :, None, :] * p[t, None, :, :]).reshape(n * n, m)
            for u in range(S):
                acc = pair @ p[u].T  # the fused (n² x m)·(m x n) GEMM
                counts[s, t, u] = np.rint(
                    np.asarray(acc, dtype=np.float64)
                ).astype(np.int64).reshape(n, n, n)
    return counts


def tally_marginal_checksums(data: np.ndarray, *, n_states: int = 2
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Independent row/column marginals of the 2-way tally tensor.

    ``row[s, t, i] = Σ_j counts[s, t, i, j] = P_s[i, :] · c_t`` where
    ``c_t[m] = Σ_j P_t[j, m]`` is the per-field occupancy of state t —
    one GEMV per state pair, O(S²·n·m) next to the O(S²·n²·m) tally GEMM
    (the 1/n Huang–Abraham overhead).  Computed in int64, so the
    checksums are exact and any mismatch against the tallies is
    corruption by definition.
    """
    p = _state_planes(data, n_states, np.int64)      # (S, n, m)
    occupancy = p.sum(axis=1)                        # (S, m)
    row = np.einsum("snm,tm->stn", p, occupancy)     # Σ_j counts[s,t,i,j]
    col = np.einsum("sm,tnm->stn", occupancy, p)     # Σ_i counts[s,t,i,j]
    return row, col


def verify_tallies(counts: np.ndarray, row_checksum: np.ndarray,
                   col_checksum: np.ndarray, *, correct: bool = True,
                   raise_on_detect: bool = True) -> AbftReport:
    """Zero-tolerance checksum audit of a 2-way tally tensor.

    Each (s, t) count matrix is checked against its independent marginals;
    a single corrupted tally breaks exactly one row and one column sum
    with matching discrepancies and is subtracted back out in place.
    Returns the aggregate report; raises
    :class:`~repro.resilience.abft.SdcDetected` on anything uncorrectable.
    """
    S = counts.shape[0]
    n = counts.shape[2]
    zeros = np.zeros(n)
    total = AbftReport()
    for s in range(S):
        for t in range(S):
            g = ChecksummedGemm(
                C=counts[s, t], row_checksum=row_checksum[s, t],
                col_checksum=col_checksum[s, t],
                row_tol=zeros, col_tol=zeros,
            )
            sub = verify_gemm(g, correct=correct,
                              raise_on_detect=raise_on_detect)
            total.checked += sub.checked
            total.detected += sub.detected
            total.corrected += sub.corrected
            total.locations += tuple((s, t) + loc for loc in sub.locations)
    return total


def tally_2way(data: np.ndarray, *, n_states: int = 2,
               method: str = "popcount", abft: bool = False,
               tracer: Tracer | None = None) -> np.ndarray:
    """2-way tallies through the GEMM-recast engine.

    ``method='popcount'`` runs the bit-packed word sweeps (the DUO 2-bit
    path); ``'einsum'`` the batched one-hot
    matmul (the FP16 tensor-core path, simulated in FP64); both are
    integer exact.  ``abft=True`` additionally audits the result against
    independently-computed marginal checksums (exact, zero tolerance)
    before returning it.  ``tracer`` records the pack/count/verify phases
    as ordinal spans; the tallies themselves are unaffected.
    """
    tr = tracer if tracer is not None else NULL_TRACER
    with tr.span("similarity.tally_2way", cat="similarity", pid="similarity",
                 tid="tally", method=method, n=int(np.asarray(data).shape[0])):
        if method == "popcount":
            with tr.span("similarity.pack", cat="similarity",
                         pid="similarity", tid="tally"):
                packed = pack_alleles(data, n_states=n_states)
            with tr.span("similarity.count_popcount", cat="similarity",
                         pid="similarity", tid="tally"):
                counts = popcount_tallies_2way(packed)
        elif method == "einsum":
            with tr.span("similarity.count_gemm", cat="similarity",
                         pid="similarity", tid="tally"):
                counts = einsum_tallies_2way(data, n_states=n_states)
        else:
            raise ValueError(f"unknown tally method {method!r}")
        if abft:
            with tr.span("similarity.abft_verify", cat="similarity",
                         pid="similarity", tid="tally"):
                row, col = tally_marginal_checksums(data, n_states=n_states)
                verify_tallies(counts, row, col)
    tr.metrics.counter("similarity.tallies_2way").inc()
    return counts


def tally_3way(data: np.ndarray, *, n_states: int = 2,
               method: str = "popcount",
               tracer: Tracer | None = None) -> np.ndarray:
    """3-way tallies through the GEMM-recast engine."""
    tr = tracer if tracer is not None else NULL_TRACER
    with tr.span("similarity.tally_3way", cat="similarity", pid="similarity",
                 tid="tally", method=method, n=int(np.asarray(data).shape[0])):
        if method == "popcount":
            with tr.span("similarity.pack", cat="similarity",
                         pid="similarity", tid="tally"):
                packed = pack_alleles(data, n_states=n_states)
            with tr.span("similarity.count_popcount", cat="similarity",
                         pid="similarity", tid="tally"):
                counts = popcount_tallies_3way(packed)
        elif method == "einsum":
            with tr.span("similarity.count_gemm", cat="similarity",
                         pid="similarity", tid="tally"):
                counts = einsum_tallies_3way(data, n_states=n_states)
        else:
            raise ValueError(f"unknown tally method {method!r}")
    tr.metrics.counter("similarity.tallies_3way").inc()
    return counts


# ---------------------------------------------------------------------------
# Performance layer: the tally pipeline as GPU kernel launches
# ---------------------------------------------------------------------------


def pack_kernel_spec(n_vectors: int, n_fields: int, *,
                     n_states: int = 2) -> KernelSpec:
    """The bit-pack stage as one bandwidth-bound kernel.

    Reads the 2-bit allele stream (one byte per field here), writes the
    packed bit planes — a 64× compression, which is why the stage
    disappears next to the count GEMM.
    """
    words = -(-n_fields // WORD_BITS)
    return KernelSpec(
        name=f"ccc_pack_{n_vectors}x{n_fields}",
        flops=float(n_vectors) * n_fields * n_states,  # compare+mask per plane
        bytes_read=float(n_vectors) * n_fields,
        bytes_written=float(n_vectors) * n_states * words * 8,
        threads=max(n_vectors * words, 64),
        # integer compare/mask work rides the FP32 vector ALUs in the
        # perf model (every catalog device defines an FP32 peak)
        precision=Precision.FP32,
        registers_per_thread=32,
        workgroup_size=256,
    )


def gemm_tally_kernel_spec(n_vectors: int, n_fields: int, *,
                           n_states: int = 2, abft: bool = False,
                           efficiency: float = 0.7) -> KernelSpec:
    """The batched count GEMM over packed operands as one launch.

    FLOP count is the dense equivalent (2·n²·m per state pair) so the
    mixed-precision throughput story lines up with §3.6; operands are the
    bit-packed planes (n_fields/8 bytes per vector per state), the tallies
    accumulate in FP32.

    ``abft=True`` adds the Huang–Abraham marginal checksums: two GEMVs
    per state pair plus the marginal comparison sweep — O(1/n) of the
    tally GEMM, the canonical ABFT overhead ratio.
    """
    words = -(-n_fields // WORD_BITS)
    flops = n_states**2 * 2.0 * float(n_vectors) ** 2 * n_fields
    abft_written = 0.0
    if abft:
        # checksum GEMVs (2·2nm per state pair) + tally marginal sums
        # (2n² per state pair) + the comparisons
        flops += n_states**2 * (4.0 * n_vectors * n_fields
                                + 2.0 * float(n_vectors) ** 2)
        abft_written = float(n_states**2 * 2 * n_vectors * 8)
    return KernelSpec(
        name=f"ccc_tally_gemm_{n_vectors}x{n_fields}"
        + ("_abft" if abft else ""),
        flops=flops / efficiency,
        bytes_read=float(2 * n_states * n_vectors * words * 8),
        bytes_written=float(n_states**2 * n_vectors * n_vectors * 4)
        + abft_written,
        threads=max(n_vectors * n_vectors, 64),
        precision=Precision.FP16,
        uses_matrix_engine=True,
        registers_per_thread=128,
        lds_per_workgroup=16 * 1024,
        workgroup_size=256,
    )


def gemmtally_kernel_specs(n_vectors: int, n_fields: int, *,
                           n_states: int = 2,
                           efficiency: float = 0.7) -> list[KernelSpec]:
    """The full tally pipeline (pack, then batched count GEMM)."""
    return [
        pack_kernel_spec(n_vectors, n_fields, n_states=n_states),
        gemm_tally_kernel_spec(n_vectors, n_fields, n_states=n_states,
                               efficiency=efficiency),
    ]

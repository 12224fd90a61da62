"""The fused numpy kernels of the chemistry stage (§3.8 Pele).

:mod:`repro.backend.base` holds the mechanism tables and the
temperature-only rate constants; :mod:`repro.backend.numpy_backend`
holds the fused ω̇ kernel and the batched Newton factor/solve kernels,
used through its module-level ``NUMPY`` instance.  The popcount tallies
live in :mod:`repro.similarity.gemmtally` and the pairwise forces in
:mod:`repro.particles.pm`, next to their only callers.
"""

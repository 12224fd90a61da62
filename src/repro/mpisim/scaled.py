"""Deprecated name of :class:`~repro.mpisim.comm.SimComm`.

Representative-rank execution is ``SimComm(..., partition=...)``.  This
alias exists only so the layer-trace targets in ``perfbench/layers.py``
that name ``repro.mpisim.scaled:ScaledComm.*`` still resolve; no code
imports it.
"""

from repro.mpisim.comm import SimComm

ScaledComm = SimComm

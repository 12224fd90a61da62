"""The paper's ten Section 3 applications, wired to the simulation stack.

Each module exposes ``run_summit()`` / ``run_frontier()`` / ``speedup()``
(where the paper reports a Summit→Frontier number) plus its app-specific
experiments (FOMs, ablations, scaling studies).
"""

from repro.apps import (
    coast,
    comet,
    e3sm,
    exasky,
    gamess,
    gests,
    lammps,
    lsms,
    nuccor,
    pele,
)

#: Table 2 rows: application module -> paper speed-up, in paper order.
TABLE2_APPS = {
    "GAMESS": gamess,
    "LSMS": lsms,
    "GESTS": gests,
    "ExaSky": exasky,
    "CoMet": comet,
    "NuCCOR": nuccor,
    "Pele": pele,
    "COAST": coast,
}

__all__ = [
    "TABLE2_APPS",
    "coast",
    "comet",
    "e3sm",
    "exasky",
    "gamess",
    "gests",
    "lammps",
    "lsms",
    "nuccor",
    "pele",
]

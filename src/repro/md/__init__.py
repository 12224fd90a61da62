"""LAMMPS/ReaxFF substrate: neighbor lists, divergent 4-body kernels, QEq."""

from repro.md.lj import lj_forces
from repro.md.neighbor import (
    SimBox,
    brute_force_neighbors,
    build_bond_list,
    build_cell_list,
    build_neighbor_list,
    hns_like_crystal,
)
from repro.md.qeq import (
    CgStats,
    QeqResult,
    cg,
    dual_cg,
    equilibrate_charges,
    qeq_matrix,
)
from repro.md.reaxff import (
    DivergenceStats,
    angle_forces,
    angle_survivor_triples,
    torsion_forces_naive,
    torsion_forces_preprocessed,
    torsion_survivor_tuples,
)

__all__ = [
    "CgStats",
    "DivergenceStats",
    "QeqResult",
    "SimBox",
    "angle_forces",
    "angle_survivor_triples",
    "brute_force_neighbors",
    "build_bond_list",
    "build_cell_list",
    "build_neighbor_list",
    "cg",
    "dual_cg",
    "equilibrate_charges",
    "hns_like_crystal",
    "lj_forces",
    "qeq_matrix",
    "torsion_forces_naive",
    "torsion_forces_preprocessed",
    "torsion_survivor_tuples",
]

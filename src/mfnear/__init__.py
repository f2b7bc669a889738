"""Maiorana-McFarland bent functions: construction, closest bent neighbors,
exact counting, and brute-force verification."""

from .boolfun import (
    AffineFit,
    TruthTable,
    ea_transform,
    is_affine_on,
    is_bent,
)
from .gf2 import (
    AffineMap,
    AffineSubspace,
    Gf2Matrix,
    LinearSubspace,
    affine_hull_or_none,
    enumerate_subspaces,
    gaussian_binomial,
    information_set,
    orthogonal,
)
from .kernels import BACKEND
from .mmf import (
    HSolutionSpace,
    MMFunction,
    NearBentWitness,
    Permutation,
    SubspaceTriple,
    build_mmf,
    coincidence_parents,
    compose_subspace,
    decode_mm,
    decompose_subspace,
    h_solution_space,
    image_subspaces,
    m_count,
    member_of_mf_u,
    near_count,
    near_enumerate,
    near_tables,
    realize_near,
    witness,
)

__version__ = "0.1.0"

"""Torsion parts of Whitehead groups of finite p-groups with p odd.

Computes SK1 of the integral group ring for abelian p-groups and for the
modular metacyclic groups of order p^n, together with genetic bases,
exact Smith normal forms, free-rank formulas, and predicted
decompositions for squares of cyclic groups.
"""

from .abelian import (
    AbelianPGroup,
    Element,
    make_group,
)
from .conjecture import (
    ConjecturePrediction,
    VerifyReport,
    predicted_decomposition,
    predicted_multiplicity,
    verify,
)
from .errors import (
    BadParams,
    DomainViolation,
    NonOddPrime,
    NotPPower,
    Sk1Error,
    TooLarge,
)
from .genetic import (
    GeneticSubgroupA,
    cyclic_quotient_count,
    enumerate_cyclic_homs,
    genetic_basis_abelian,
)
from .metacyclic import (
    MetacyclicGroup,
    MetaGeneticSubgroup,
    genetic_basis_metacyclic,
    make_metacyclic,
    relation_component,
    sk1_metacyclic,
)
from .ranks import (
    IrrepCounts,
    irrep_counts_metacyclic,
    irrep_counts_square_abelian,
    rank_metacyclic,
    rank_square_abelian,
)
from .sk1_abelian import (
    EXHAUSTIVE,
    REPRESENTATIVES,
    RelationSet,
    TargetProduct,
    relation_matrix,
    sk1,
)
from .snf import CyclicDecomposition, cokernel_decomposition

__version__ = "0.1.0"

# The public API.  The other names imported above (pipeline stages and
# element-level helpers) stay importable as attributes for tests and tools.
__all__ = [
    "AbelianPGroup",
    "BadParams",
    "ConjecturePrediction",
    "CyclicDecomposition",
    "EXHAUSTIVE",
    "GeneticSubgroupA",
    "IrrepCounts",
    "MetaGeneticSubgroup",
    "MetacyclicGroup",
    "NonOddPrime",
    "NotPPower",
    "REPRESENTATIVES",
    "Sk1Error",
    "TooLarge",
    "VerifyReport",
    "cokernel_decomposition",
    "cyclic_quotient_count",
    "genetic_basis_abelian",
    "genetic_basis_metacyclic",
    "irrep_counts_metacyclic",
    "irrep_counts_square_abelian",
    "make_group",
    "make_metacyclic",
    "predicted_decomposition",
    "predicted_multiplicity",
    "rank_metacyclic",
    "rank_square_abelian",
    "sk1",
    "sk1_metacyclic",
    "verify",
]

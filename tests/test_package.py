"""The package's public names."""

import sk1

# Names the package exported before ``__all__`` was cut to the public API;
# each must still resolve as an attribute.
IMPORTABLE = """
AbelianPGroup BadParams ConjecturePrediction CyclicDecomposition
DomainViolation EXHAUSTIVE Element GeneticSubgroupA
IrrepCounts MetaGeneticSubgroup MetacyclicGroup NonOddPrime
NotPPower REPRESENTATIVES RelationSet Sk1Error TargetProduct TooLarge
VerifyReport cokernel_decomposition cyclic_quotient_count
enumerate_cyclic_homs genetic_basis_abelian
genetic_basis_metacyclic irrep_counts_metacyclic irrep_counts_square_abelian
make_group make_metacyclic predicted_decomposition predicted_multiplicity
rank_metacyclic rank_square_abelian relation_component relation_matrix sk1
sk1_metacyclic verify
""".split()

# Retired on purpose: an abelian basis member is its linear form, and the
# per-element reference rows, the element-level group arithmetic of both
# families and the exact Smith form over Z live in tests/oracles.py.  A
# lattice with a seed row in every column has full rank, so no cokernel
# is infinite.  The element listing and the target-product function, which
# only tests read, live in tests/oracles.py too.
RETIRED = [
    "CyclicHom", "quotient_dlog", "relation_row",
    "centralizer", "element_order", "DimensionMismatch",
    "smith_divisors", "InfiniteCokernel",
    "enumerate_elements", "target_product",
]
RETIRED_METACYCLIC = [
    "mul", "inverse", "power", "element_order", "elements", "centralizer", "_closure",
]
RETIRED_ABELIAN = ["mul", "element_order"]


def test_public_api_is_a_subset_of_importable_names():
    assert len(sk1.__all__) == len(set(sk1.__all__))
    assert set(sk1.__all__) <= set(IMPORTABLE)
    for name in IMPORTABLE:
        assert hasattr(sk1, name), name
    for name in RETIRED:
        assert not hasattr(sk1, name), name


def test_element_arithmetic_is_retired():
    for name in RETIRED_METACYCLIC:
        assert not hasattr(sk1.metacyclic, name), name
    for name in RETIRED_ABELIAN:
        assert not hasattr(sk1.abelian, name), name
    assert not hasattr(sk1.errors, "DimensionMismatch")
    assert not hasattr(sk1.MetaGeneticSubgroup, "members")


def test_star_import_gives_the_public_api():
    ns: dict = {}
    exec("from sk1 import *", ns)
    assert set(ns) - {"__builtins__"} == set(sk1.__all__)
    assert "relation_matrix" not in ns


def test_exact_smith_form_is_retired():
    for name in ("smith_divisors", "_diagonalize_exact", "_divisor_chain"):
        assert not hasattr(sk1.snf, name), name
    assert not hasattr(sk1.errors, "InfiniteCokernel")

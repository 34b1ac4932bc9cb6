"""Probabilistic and/xor trees: model, generating functions and ranking."""

from .generating import (
    BivariatePolynomial,
    generating_function,
    positional_distribution,
    positional_probabilities_tree,
    subset_size_distribution,
    world_size_distribution,
)
from .ranking import (
    prfe_values_tree,
    prfe_values_tree_recompute,
    rank_tree,
)
from .tree import AndNode, AndXorTree, LeafNode, Node, XorNode

__all__ = [
    "AndXorTree",
    "AndNode",
    "XorNode",
    "LeafNode",
    "Node",
    "BivariatePolynomial",
    "generating_function",
    "world_size_distribution",
    "subset_size_distribution",
    "positional_distribution",
    "positional_probabilities_tree",
    "prfe_values_tree",
    "prfe_values_tree_recompute",
    "rank_tree",
]

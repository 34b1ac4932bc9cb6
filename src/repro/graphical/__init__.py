"""Graphical-model substrate: Markov networks, junction trees and ranking over them."""

from .factors import Factor
from .junction_tree import CalibratedTree, JunctionTree, build_junction_tree, min_fill_order
from .markov_chain import MarkovChainRelation
from .model import MarkovNetworkRelation
from .ranking import (
    junction_tree_for,
    positional_probabilities_markov,
    rank_distribution_markov,
    rank_markov_network,
)

__all__ = [
    "Factor",
    "JunctionTree",
    "CalibratedTree",
    "build_junction_tree",
    "min_fill_order",
    "MarkovChainRelation",
    "MarkovNetworkRelation",
    "junction_tree_for",
    "positional_probabilities_markov",
    "rank_distribution_markov",
    "rank_markov_network",
]

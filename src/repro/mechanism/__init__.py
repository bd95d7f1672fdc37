"""Mechanism-design framework: profiles, axioms, cost-sharing machinery.

This layer is paper-agnostic: it provides the vocabulary (mechanism results,
axiom auditors, Shapley values, the core, the Moulin-Shenker driver, VCG)
that :mod:`repro.core` instantiates with the paper's wireless structures.
"""

from repro.mechanism.base import CostSharingMechanism, MechanismResult
from repro.mechanism.core import core_allocation, core_is_empty, verify_core_allocation
from repro.mechanism.cost_function import CostFunction
from repro.mechanism.moulin_shenker import check_cross_monotonicity, moulin_shenker
from repro.mechanism.properties import (
    audit_basic_axioms,
    bb_factor,
    efficiency_gap,
    find_group_deviation,
    find_unilateral_deviation,
)
from repro.mechanism.shapley import shapley_shares
from repro.mechanism.vcg import MarginalCostMechanism

__all__ = [
    "CostFunction",
    "CostSharingMechanism",
    "MarginalCostMechanism",
    "MechanismResult",
    "audit_basic_axioms",
    "bb_factor",
    "check_cross_monotonicity",
    "core_allocation",
    "core_is_empty",
    "efficiency_gap",
    "find_group_deviation",
    "find_unilateral_deviation",
    "moulin_shenker",
    "shapley_shares",
    "verify_core_allocation",
]

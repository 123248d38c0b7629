"""Clustered VLIW machine model.

This package models the processor configurations evaluated in the paper:
``k-(GPxMy-REGz)`` cores built out of *k* identical clusters, each holding
*x* general-purpose floating-point units, *y* memory ports and a *z*-entry
register file, connected by a small number of buses used by explicit
inter-cluster ``move`` operations (Section 4 of the paper).
"""

from repro.machine.config import ClusterConfig, MachineConfig, parse_config
from repro.machine.resources import OpKind, ResourceClass
from repro.machine.reservation import ReservationStep, reservation_steps
from repro.machine.technology import TechnologyModel

__all__ = [
    "ClusterConfig",
    "MachineConfig",
    "parse_config",
    "OpKind",
    "ResourceClass",
    "ReservationStep",
    "reservation_steps",
    "TechnologyModel",
]

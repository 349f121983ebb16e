"""Gate-level quantum circuit intermediate representation.

This subpackage replaces the role Qiskit plays in the original Rasengan
artifact: building circuits (including the multi-controlled structure of
transition operators, Figure 4 of the paper), decomposing multi-controlled
gates into a CX + single-qubit basis, and accounting for circuit depth,
two-qubit gate counts, and execution latency.
"""

from repro.circuits.gates import (
    Instruction,
    gate_matrix,
    single_qubit_matrix,
)
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.depth import (
    CostModel,
    circuit_depth,
    gate_counts,
    two_qubit_gate_count,
    transition_cx_cost,
)
from repro.circuits.decompose import decompose_circuit
from repro.circuits.latency import DeviceTimings, LatencyModel
from repro.circuits.unitary import circuit_unitary, unitaries_equal
from repro.circuits.visualize import draw

__all__ = [
    "Instruction",
    "QuantumCircuit",
    "gate_matrix",
    "single_qubit_matrix",
    "CostModel",
    "circuit_depth",
    "gate_counts",
    "two_qubit_gate_count",
    "transition_cx_cost",
    "decompose_circuit",
    "DeviceTimings",
    "LatencyModel",
    "circuit_unitary",
    "unitaries_equal",
    "draw",
]

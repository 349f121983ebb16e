"""Hardware-efficient ansatz (HEA), Kandala et al. (Nature'17).

Repeated layers of native single-qubit rotations (RY, RZ on every qubit)
with a linear chain of CX entanglers, trained against the penalty energy
(the paper adds a penalty method to HEA so its output can respect the
constraints "as much as possible", Section 5.1).

Parameter count is ``2 n (L + 1)`` — an initial rotation layer plus one
per entangling block — which is why Table 2 shows HEA using an order of
magnitude more parameters than the Hamiltonian-based methods.

The dense training path applies the ansatz a layer at a time, not a gate
at a time: each rotation layer is one fused ``RZ @ RY`` stack applied by
:func:`~repro.simulators.statevector.apply_product_layer` (two
half-register Kronecker products), and each CX chain is one gather
through :func:`~repro.simulators.statevector.cx_ladder_permutation`.
Probabilities match the gate-level :meth:`HardwareEfficientAnsatz.build_circuit`
to rounding (the ``dense-ansatz-vs-circuit`` verify check).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import VariationalBaseline
from repro.circuits.circuit import QuantumCircuit
from repro.problems.base import ConstrainedBinaryProblem
from repro.simulators.statevector import apply_product_layer, cx_ladder_permutation


class HardwareEfficientAnsatz(VariationalBaseline):
    """HEA with RY/RZ rotation layers and CX-chain entanglers.

    Args:
        problem: problem instance.
        layers: number of entangling blocks (paper default: 5).
        **kwargs: see :class:`~repro.baselines.common.VariationalBaseline`.
    """

    algorithm = "hea"

    def __init__(
        self,
        problem: ConstrainedBinaryProblem,
        layers: int = 5,
        **kwargs,
    ) -> None:
        super().__init__(problem, **kwargs)
        self.layers = layers

    @property
    def num_parameters(self) -> int:
        n = self.problem.num_variables
        return 2 * n * (self.layers + 1)

    def ansatz_structure(self):
        return {"layers": int(self.layers)}

    def initial_parameters(self) -> np.ndarray:
        return self._rng.uniform(-0.1, 0.1, size=self.num_parameters)

    # ------------------------------------------------------------------
    @staticmethod
    def _rotation_matrices(angles: np.ndarray) -> np.ndarray:
        """Per-qubit fused ``RZ(phi) @ RY(theta)`` stack, shape ``(n, 2, 2)``.

        ``angles`` interleaves ``(theta_q, phi_q)`` per qubit, the order
        :meth:`build_circuit` emits RY then RZ.
        """
        half_theta = 0.5 * angles[0::2]
        cos, sin = np.cos(half_theta), np.sin(half_theta)
        phase = np.exp(-0.5j * angles[1::2])
        matrices = np.empty((half_theta.size, 2, 2), dtype=np.complex128)
        matrices[:, 0, 0] = phase * cos
        matrices[:, 0, 1] = -phase * sin
        matrices[:, 1, 0] = phase.conj() * sin
        matrices[:, 1, 1] = phase.conj() * cos
        return matrices

    def simulate(self, parameters: np.ndarray) -> np.ndarray:
        n = self.problem.num_variables
        params = self._parameter_vector(parameters).reshape(self.layers + 1, 2 * n)
        ladder = cx_ladder_permutation(n)
        state = np.zeros(1 << n, dtype=np.complex128)
        state[0] = 1.0
        state = apply_product_layer(state, self._rotation_matrices(params[0]), n)
        for layer in range(self.layers):
            state = apply_product_layer(
                state[ladder], self._rotation_matrices(params[layer + 1]), n
            )
        return state

    def build_circuit(self, parameters: np.ndarray) -> QuantumCircuit:
        n = self.problem.num_variables
        params = np.asarray(parameters, dtype=float).reshape(self.layers + 1, 2 * n)
        circuit = QuantumCircuit(n, name="hea")

        def rotations(angles: np.ndarray) -> None:
            for qubit in range(n):
                circuit.ry(float(angles[2 * qubit]), qubit)
                circuit.rz(float(angles[2 * qubit + 1]), qubit)

        rotations(params[0])
        for layer in range(self.layers):
            for qubit in range(n - 1):
                circuit.cx(qubit, qubit + 1)
            rotations(params[layer + 1])
        circuit.measure_all()
        return circuit

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

COBYLA's initial simplex moves one parameter per loss call, which at
``2 n (L + 1)`` parameters is nearly a whole ``table2 --quick`` budget.
:meth:`HardwareEfficientAnsatz.simulate` therefore remembers its last
call: the parameter rows, compared bitwise (``-0.0`` is not ``0.0``), and
the states after rotation rows ``0..L-1``.  A call restarts from the
state before the first row that differs, so it runs the same operations
on the same inputs as a full pass and gives the same bits (the
``hea-prefix-vs-fresh`` verify check).  The memo holds at most ``L``
states of ``2**n`` complex amplitudes, 80 KB at n = 10 and L = 5.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import VariationalBaseline
from repro.circuits.circuit import QuantumCircuit
from repro.problems.base import ConstrainedBinaryProblem
from repro.simulators.statevector import apply_product_layer, cx_ladder_permutation
from repro import telemetry


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
        #: ``(rows, states)`` of the last :meth:`simulate` call: its
        #: parameter rows as ``uint64`` bits, and the states after
        #: rotation rows ``0..layers-1``.
        self._prefix = None

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
        """Dense statevector at ``parameters``, reusing the last call's prefix.

        The state before the first rotation row that differs (bitwise)
        from the previous call's is taken from a memo of that call, so a
        COBYLA simplex vertex that moves one coordinate of row ``r``
        applies ``layers + 1 - r`` rotation layers instead of all of
        them; the counter ``baselines.layers_applied`` records how many.
        The memo holds at most ``layers`` states (80 KB at n = 10 with 5
        layers), is replaced whole on every call and is never pickled; the
        returned array is always a new one.
        """
        n = self.problem.num_variables
        rows = self._parameter_vector(parameters).reshape(self.layers + 1, 2 * n)
        bits = np.ascontiguousarray(rows).view(np.uint64)
        start, states = 0, []
        memo = self._prefix
        if memo is not None and memo[0].shape == bits.shape:
            memo_bits, memo_states = memo
            changed = (bits != memo_bits).any(axis=1)
            start = int(changed.argmax()) if changed.any() else self.layers
            states = list(memo_states[:start])
        ladder = cx_ladder_permutation(n)
        if start == 0:
            state = np.zeros(1 << n, dtype=np.complex128)
            state[0] = 1.0
        else:
            state = states[-1][ladder]
        for row in range(start, self.layers + 1):
            if row > start:
                state = state[ladder]
            state = apply_product_layer(state, self._rotation_matrices(rows[row]), n)
            if row < self.layers:
                states.append(state)
        self._prefix = (bits.copy(), tuple(states))
        telemetry.add("baselines.layers_applied", self.layers + 1 - start)
        return state

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_prefix"] = None
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

"""Penalty-term-based QAOA (P-QAOA), with the two optimization techniques
the paper combines it with (Section 5.1):

* **FrozenQubits** [3]: freeze the highest-degree ("hotspot") variables of
  the QUBO coupling graph at their values in a reference assignment,
  shrinking the circuit and smoothing the landscape.
* **Red-QAOA-style parameter initialization** [40]: a coarse single-layer
  ``(gamma, beta)`` grid search on the (frozen) energy landscape seeds
  every layer's initial parameters instead of starting from zero.

The phase-separation unitary is diagonal, so the fast simulation path is
an elementwise phase multiply of the cached penalty energies; the mixer is
a product of per-qubit RX rotations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.common import VariationalBaseline
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import single_qubit_matrix
from repro.problems.base import ConstrainedBinaryProblem
from repro.simulators.statevector import apply_single_qubit


class PenaltyQAOA(VariationalBaseline):
    """P-QAOA with optional FrozenQubits and Red-QAOA initialization.

    Args:
        problem: problem instance.
        layers: QAOA depth ``p`` (paper default: 5).
        frozen_qubits: number of hotspot variables to freeze (0 disables).
        parameter_init: ``"redqaoa"`` (grid-search seeding) or ``"zero"``.
        **kwargs: see :class:`~repro.baselines.common.VariationalBaseline`.
    """

    algorithm = "pqaoa"

    def __init__(
        self,
        problem: ConstrainedBinaryProblem,
        layers: int = 5,
        frozen_qubits: int = 0,
        parameter_init: str = "redqaoa",
        **kwargs,
    ) -> None:
        super().__init__(problem, **kwargs)
        self.layers = layers
        self.parameter_init = parameter_init
        self.frozen: Dict[int, int] = {}
        # (sorted frozen items, initial state) — see _initial_state.
        self._initial_cache: Optional[Tuple[tuple, np.ndarray]] = None
        if frozen_qubits > 0:
            self._freeze_hotspots(frozen_qubits)
        self._active = [
            qubit
            for qubit in range(problem.num_variables)
            if qubit not in self.frozen
        ]

    # ------------------------------------------------------------------
    # FrozenQubits
    # ------------------------------------------------------------------
    def _freeze_hotspots(self, count: int) -> None:
        """Clamp the ``count`` highest-degree variables.

        The reference values come from the problem's cheap feasible
        construction, the natural stand-in for FrozenQubits' majority-vote
        pre-solve.
        """
        degrees = self.encoding.variable_degrees()
        reference = self.problem.initial_feasible_solution()
        hotspots = np.argsort(-degrees)[:count]
        self.frozen = {int(q): int(reference[q]) for q in hotspots}

    # ------------------------------------------------------------------
    @property
    def num_parameters(self) -> int:
        return 2 * self.layers

    def ansatz_structure(self):
        # Frozen qubits change the circuit shape, so they are part of the
        # ansatz identity (sorted for a deterministic fingerprint).
        return {
            "layers": int(self.layers),
            "frozen": {str(q): int(v) for q, v in sorted(self.frozen.items())},
        }

    def initial_parameters(self) -> np.ndarray:
        if self.parameter_init == "zero":
            return np.zeros(self.num_parameters)
        gamma, beta = self._grid_search_seed()
        params = np.empty(self.num_parameters)
        params[0::2] = gamma
        params[1::2] = beta
        return params

    def _grid_search_seed(self) -> Tuple[float, float]:
        """Red-QAOA-style coarse sweep of a single-layer landscape.

        The 25-point sweep runs as one engine batch (the evaluations are
        independent, exact single-layer evolutions).
        """
        gammas = np.linspace(0.005, 0.1, 5)
        betas = np.linspace(0.1, 1.2, 5)
        grid = [
            (float(gamma), float(beta)) for gamma in gammas for beta in betas
        ]

        def landscape_value(point: Tuple[float, float]) -> float:
            state = self._evolve(list(point), layers=1)
            return float((np.abs(state) ** 2) @ self.encoding.energies)

        values = self.engine.run_batch(
            landscape_value, grid, label="redqaoa-grid"
        )
        best_index = int(np.argmin(values))
        return grid[best_index]

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def _initial_state(self) -> np.ndarray:
        """|+> on active qubits; frozen qubits pinned to their value.

        Returns a fresh copy of a state built once per frozen-qubit
        assignment (``frozen`` may change after construction, as
        :meth:`ansatz_spec` allows).
        """
        frozen = tuple(sorted(self.frozen.items()))
        if self._initial_cache is None or self._initial_cache[0] != frozen:
            n = self.problem.num_variables
            state = np.zeros(1 << n, dtype=np.complex128)
            state[0] = 1.0
            hadamard = single_qubit_matrix("h")
            x_gate = single_qubit_matrix("x")
            for qubit in range(n):
                if qubit in self.frozen:
                    if self.frozen[qubit]:
                        apply_single_qubit(state, x_gate, qubit, n)
                else:
                    apply_single_qubit(state, hadamard, qubit, n)
            self._initial_cache = (frozen, state)
        return self._initial_cache[1].copy()

    def _evolve(self, parameters: np.ndarray, layers: Optional[int] = None) -> np.ndarray:
        n = self.problem.num_variables
        layers = self.layers if layers is None else layers
        params = np.asarray(parameters, dtype=float)
        state = self._initial_state()
        energies = self.encoding.energies
        for layer in range(layers):
            gamma = params[2 * layer]
            beta = params[2 * layer + 1]
            state = state * np.exp(-1j * gamma * energies)
            rx = single_qubit_matrix("rx", (2.0 * beta,))
            for qubit in self._active:
                apply_single_qubit(state, rx, qubit, n)
        return state

    def simulate(self, parameters: np.ndarray) -> np.ndarray:
        return self._evolve(self._parameter_vector(parameters))

    # ------------------------------------------------------------------
    def build_circuit(self, parameters: np.ndarray) -> QuantumCircuit:
        n = self.problem.num_variables
        params = np.asarray(parameters, dtype=float)
        circuit = QuantumCircuit(n, name="pqaoa")
        for qubit in range(n):
            if qubit in self.frozen:
                if self.frozen[qubit]:
                    circuit.x(qubit)
            else:
                circuit.h(qubit)
        for layer in range(self.layers):
            gamma = float(params[2 * layer])
            beta = float(params[2 * layer + 1])
            circuit.compose(self.encoding.phase_separation_circuit(gamma))
            for qubit in self._active:
                circuit.rx(2.0 * beta, qubit)
        circuit.measure_all()
        return circuit

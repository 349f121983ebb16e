"""Commute-Hamiltonian-based QAOA (Choco-Q, HPCA'25).

The mixer is the sum of all transition Hamiltonians,
``H_m = sum_k H(u_k)``, which commutes with the constraint operators, so a
feasible initial state never leaves the feasible subspace.  The objective
layer is the diagonal phase ``exp(-i * gamma * H_obj)``.

Because both layers preserve the span of feasible basis states, the exact
noise-free simulation can be *projected onto the feasible subspace*: the
mixer becomes a small real-symmetric ``F x F`` matrix whose
eigendecomposition is computed once, making each evolution an ``O(F^2)``
matrix product instead of a ``2^n``-dimensional ``expm``.  This projection
is exact, not an approximation — it is the same structural fact Choco-Q's
correctness rests on.

The gate-level circuit (for depth accounting and noisy runs) Trotterises
the mixer into the product of per-vector transition circuits, which is the
role the "state-of-the-art unitary decomposition" plays in the paper's
Choco-Q setup and is why Choco-Q's depth is an order of magnitude above
Rasengan's segmented execution.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.common import VariationalBaseline
from repro.circuits.circuit import QuantumCircuit
from repro.core.transition import transition_circuit
from repro.linalg.bitvec import bits_to_int, int_to_bits
from repro.linalg.moves import move_partner_key
from repro.problems.base import ConstrainedBinaryProblem


class ChocoQ(VariationalBaseline):
    """Choco-Q with exact feasible-subspace simulation.

    Args:
        problem: problem instance.
        layers: QAOA depth ``p`` (paper default: 5).
        trotter_steps: mixer Trotter slices in the gate-level circuit.
        **kwargs: see :class:`~repro.baselines.common.VariationalBaseline`.
    """

    algorithm = "chocoq"

    def __init__(
        self,
        problem: ConstrainedBinaryProblem,
        layers: int = 5,
        trotter_steps: int = 1,
        trotter_order: int = 1,
        **kwargs,
    ) -> None:
        super().__init__(problem, **kwargs)
        if trotter_order not in (1, 2):
            raise ValueError("trotter_order must be 1 or 2")
        self.layers = layers
        self.trotter_steps = trotter_steps
        self.trotter_order = trotter_order
        self.basis = problem.homogeneous_basis

    @property
    def num_parameters(self) -> int:
        return 2 * self.layers

    def ansatz_structure(self):
        return {
            "layers": int(self.layers),
            "trotter_steps": int(self.trotter_steps),
            "trotter_order": int(self.trotter_order),
        }

    def initial_parameters(self) -> np.ndarray:
        return np.full(self.num_parameters, 0.1)

    # ------------------------------------------------------------------
    # Feasible-subspace projection
    # ------------------------------------------------------------------
    @functools.cached_property
    def _subspace(self) -> Tuple[List[int], Dict[int, int], np.ndarray, np.ndarray, np.ndarray]:
        """(keys, key->row, eigenvalues, eigenvectors, energies).

        ``H_m`` restricted to the feasible subspace is real symmetric
        (each ``H(u)`` pairs states symmetrically), so one ``eigh`` gives
        exact mixer evolution for every ``beta``.
        """
        n = self.problem.num_variables
        keys = list(self.problem.feasible_keys())
        index = {key: row for row, key in enumerate(keys)}
        dim = len(keys)
        mixer = np.zeros((dim, dim))
        for u in np.atleast_2d(self.basis):
            for key in keys:
                partner = move_partner_key(key, np.asarray(u, dtype=np.int64), n)
                if partner is not None and partner in index:
                    mixer[index[partner], index[key]] += 1.0
        eigenvalues, eigenvectors = np.linalg.eigh(mixer)
        energies = np.array(
            [self.problem.value(int_to_bits(key, n)) for key in keys]
        )
        return keys, index, eigenvalues, eigenvectors, energies

    def simulate(self, parameters: np.ndarray) -> np.ndarray:
        """Dense statevector (embedding the subspace amplitudes)."""
        amplitudes = self._simulate_subspace(self._parameter_vector(parameters))
        state = np.zeros(1 << self.problem.num_variables, dtype=np.complex128)
        state[self._subspace[0]] = amplitudes
        return state

    def _simulate_subspace(self, parameters: np.ndarray) -> np.ndarray:
        keys, index, eigenvalues, eigenvectors, energies = self._subspace
        params = np.asarray(parameters, dtype=float)
        start_key = bits_to_int(self.problem.initial_feasible_solution())
        amplitudes = np.zeros(len(keys), dtype=np.complex128)
        amplitudes[index[start_key]] = 1.0
        for layer in range(self.layers):
            gamma = params[2 * layer]
            beta = params[2 * layer + 1]
            amplitudes = amplitudes * np.exp(-1j * gamma * energies)
            phases = np.exp(-1j * beta * eigenvalues)
            amplitudes = eigenvectors @ (phases * (eigenvectors.T @ amplitudes))
        return amplitudes

    # ------------------------------------------------------------------
    def build_circuit(self, parameters: np.ndarray) -> QuantumCircuit:
        """Gate-level Choco-Q: Trotterised mixer over transition circuits."""
        n = self.problem.num_variables
        params = np.asarray(parameters, dtype=float)
        circuit = QuantumCircuit(n, name="chocoq")
        circuit.prepare_bitstring(self.problem.initial_feasible_solution())
        rows = np.atleast_2d(self.basis)
        for layer in range(self.layers):
            gamma = float(params[2 * layer])
            beta = float(params[2 * layer + 1])
            circuit.compose(self.encoding.phase_separation_circuit(gamma))
            slice_angle = beta / self.trotter_steps
            for _ in range(self.trotter_steps):
                if self.trotter_order == 1:
                    for u in rows:
                        circuit.compose(transition_circuit(u, slice_angle, n))
                else:
                    # Symmetric (Strang) splitting: half-steps forward,
                    # then backward, per slice.
                    for u in rows:
                        circuit.compose(
                            transition_circuit(u, slice_angle / 2.0, n)
                        )
                    for u in rows[::-1]:
                        circuit.compose(
                            transition_circuit(u, slice_angle / 2.0, n)
                        )
        circuit.measure_all()
        return circuit

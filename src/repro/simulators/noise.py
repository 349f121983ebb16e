"""Kraus channels and per-gate noise models.

The paper evaluates Rasengan under depolarizing (Pauli) noise, amplitude
damping, and phase damping calibrated from IBM devices (Section 5.5), and
on two real machines whose dominant figure of merit is the two-qubit gate
error rate (Section 5.4).  This module provides those channels plus a
:class:`NoiseModel` that attaches channels to gate categories and readout.

Channels are used in two ways:

* exactly, by :class:`repro.simulators.density.DensityMatrixSimulator`;
* stochastically, by the trajectory backends, which take one Kraus
  operator per application: a mixture's by :meth:`KrausChannel.draw_unitary`,
  any other by :func:`draw_weighted` on the weights ``||K_i |psi>||^2``.
  Both bisect one ``rng.random()`` into the CDF ``Generator.choice`` builds,
  so a seeded trajectory takes the operators ``rng.choice`` would.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SimulationError
from repro.linalg.summation import left_to_right_sum

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"I": _I, "X": _X, "Y": _Y, "Z": _Z}


@dataclass(frozen=True)
class KrausChannel:
    """A completely-positive trace-preserving map on one qubit.

    Construction validates once what a draw relies on: trace preservation
    and a mixture's probabilities (finite, non-negative, one per unitary,
    summing to 1 within ``Generator.choice``'s ``sqrt(eps)``).  It stores
    the mixture's CDF, and ``None`` for each ``np.allclose(u, I)`` unitary,
    so drawing the identity applies nothing.

    Attributes:
        name: human-readable channel name.
        operators: tuple of 2x2 Kraus matrices satisfying
            ``sum(K^dag K) = I``.
        unitary_mixture: when every Kraus operator is proportional to a
            unitary, ``(probabilities, unitaries)`` allowing state-independent
            sampling (used for Pauli channels).
    """

    name: str
    operators: Tuple[np.ndarray, ...]
    unitary_mixture: Optional[Tuple[Tuple[float, ...], Tuple[np.ndarray, ...]]] = None
    _cdf: Tuple[float, ...] = field(init=False, repr=False, compare=False)
    _draws: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        total = sum(op.conj().T @ op for op in self.operators)
        if not np.allclose(total, np.eye(2), atol=1e-9):
            raise SimulationError(
                f"channel {self.name!r} is not trace preserving"
            )
        object.__setattr__(self, "_cdf", ())
        object.__setattr__(self, "_draws", ())
        if self.unitary_mixture is None:
            return
        probabilities, unitaries = self.unitary_mixture
        p = np.asarray(probabilities, dtype=np.float64)
        if (
            p.shape != (len(unitaries),)
            or not np.isfinite(p).all()
            or (p < 0).any()
            or abs(math.fsum(p) - 1.0) > math.sqrt(np.finfo(np.float64).eps)
        ):
            raise SimulationError(
                f"channel {self.name!r}: mixture probabilities {probabilities} "
                "must be finite, non-negative, one per unitary and sum to 1"
            )
        draws = tuple(None if np.allclose(u, np.eye(2)) else u for u in unitaries)
        object.__setattr__(self, "_cdf", _cdf(p))
        object.__setattr__(self, "_draws", draws)

    @property
    def is_unitary_mixture(self) -> bool:
        return self.unitary_mixture is not None

    def draw_unitary(self, rng: np.random.Generator) -> Optional[np.ndarray]:
        """The unitary ``rng.choice`` would pick; ``None`` for the identity."""
        return self._draws[_draw(self._cdf, rng)]


def draw_weighted(weights: Sequence[float], rng: np.random.Generator) -> int:
    """Index of the Kraus operator taken, given the weights ``||K_i psi||^2``.

    Each weight is divided by their in-order total and drawn like a mixture;
    a total that is not finite or is zero raises :class:`SimulationError`.
    """
    total = left_to_right_sum(weights)
    if not math.isfinite(total):
        raise SimulationError(f"non-finite weight among Kraus weights {weights}")
    if total == 0.0:
        raise SimulationError("trajectory collapsed to zero norm")
    return _draw(_cdf([w / total for w in weights]), rng)


def _cdf(probabilities: Sequence[float]) -> Tuple[float, ...]:
    """``cumsum(p)`` divided by its last entry, as ``Generator.choice`` builds it."""
    cdf = np.cumsum(np.asarray(probabilities, dtype=np.float64))
    cdf /= cdf[-1]
    return tuple(cdf.tolist())


def _draw(cdf: Sequence[float], rng: np.random.Generator) -> int:
    """The index ``Generator.choice`` draws: one uniform, bisected right."""
    return bisect_right(cdf, rng.random())


def depolarizing(probability: float) -> KrausChannel:
    """Single-qubit depolarizing channel with error probability ``p``.

    With probability ``p`` one of X, Y, Z is applied uniformly (the common
    device-calibration convention for a "gate error rate").
    """
    _check_probability(probability)
    p = probability
    return _mixture("depolarizing", (1 - p, p / 3, p / 3, p / 3), (_I, _X, _Y, _Z))


def pauli_channel(px: float, py: float, pz: float) -> KrausChannel:
    """General Pauli channel with independent X/Y/Z probabilities."""
    for p in (px, py, pz):
        _check_probability(p)
    p_id = 1.0 - px - py - pz
    if p_id < -1e-12:
        raise SimulationError("Pauli probabilities exceed 1")
    p_id = max(p_id, 0.0)
    return _mixture("pauli", (p_id, px, py, pz), (_I, _X, _Y, _Z))


def bit_flip(probability: float) -> KrausChannel:
    """X error with probability ``p``."""
    _check_probability(probability)
    return _mixture("bit_flip", (1 - probability, probability), (_I, _X))


def amplitude_damping(gamma: float) -> KrausChannel:
    """T1 relaxation toward ``|0>`` with damping probability ``gamma``."""
    _check_probability(gamma)
    k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    return KrausChannel("amplitude_damping", (k0, k1))


def phase_damping(lam: float) -> KrausChannel:
    """Pure dephasing with probability ``lam``."""
    _check_probability(lam)
    k0 = np.array([[1, 0], [0, math.sqrt(1 - lam)]], dtype=complex)
    k1 = np.array([[0, 0], [0, math.sqrt(lam)]], dtype=complex)
    return KrausChannel("phase_damping", (k0, k1))


def _mixture(
    name: str, probabilities: Sequence[float], unitaries: Sequence[np.ndarray]
) -> KrausChannel:
    """The channel applying ``unitaries[i]`` with ``probabilities[i]``."""
    ops = tuple(math.sqrt(p) * u for p, u in zip(probabilities, unitaries))
    return KrausChannel(name, ops, (tuple(probabilities), tuple(unitaries)))


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise SimulationError(f"probability {p} outside [0, 1]")


@dataclass
class NoiseModel:
    """Per-gate-category noise specification.

    Channels listed under ``single_qubit`` are applied to the qubit of every
    one-qubit gate; those under ``two_qubit`` to *both* qubits of every
    two-qubit gate (the usual calibration-data approximation).  Readout
    error flips each measured bit independently.

    Attributes:
        single_qubit: channels after each single-qubit gate.
        two_qubit: channels after each two-qubit gate, per involved qubit.
        readout_p01: probability of reading 1 when the qubit is 0.
        readout_p10: probability of reading 0 when the qubit is 1.
    """

    single_qubit: List[KrausChannel] = field(default_factory=list)
    two_qubit: List[KrausChannel] = field(default_factory=list)
    readout_p01: float = 0.0
    readout_p10: float = 0.0

    def channels_for(self, num_gate_qubits: int) -> List[KrausChannel]:
        """Channels to apply per qubit for a gate of the given width.

        Gates wider than two qubits are charged two-qubit noise; noisy
        backends are expected to run *decomposed* circuits, so this is a
        safety net rather than the normal path.
        """
        if num_gate_qubits <= 1:
            return self.single_qubit
        return self.two_qubit

    @property
    def has_readout_error(self) -> bool:
        return self.readout_p01 > 0 or self.readout_p10 > 0

    @classmethod
    def from_error_rates(
        cls,
        *,
        single_qubit_error: float = 0.0,
        two_qubit_error: float = 0.0,
        amplitude_damping_prob: float = 0.0,
        phase_damping_prob: float = 0.0,
        readout_error: float = 0.0,
    ) -> "NoiseModel":
        """Build the paper's composite model (Section 5.5).

        Depolarizing noise at the gate error rate, with optional amplitude
        and phase damping as fixed background on every gate.
        """
        single: List[KrausChannel] = []
        double: List[KrausChannel] = []
        if single_qubit_error > 0:
            single.append(depolarizing(single_qubit_error))
        if two_qubit_error > 0:
            double.append(depolarizing(two_qubit_error))
        for prob, factory in (
            (amplitude_damping_prob, amplitude_damping),
            (phase_damping_prob, phase_damping),
        ):
            if prob > 0:
                single.append(factory(prob))
                double.append(factory(prob))
        return cls(
            single_qubit=single,
            two_qubit=double,
            readout_p01=readout_error,
            readout_p10=readout_error,
        )

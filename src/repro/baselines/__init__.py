"""Baseline variational algorithms the paper compares against.

* :mod:`repro.baselines.encoding` — QUBO/penalty encodings shared by the
  penalty-based methods.
* :mod:`repro.baselines.hea` — hardware-efficient ansatz (Kandala et al.).
* :mod:`repro.baselines.qaoa_penalty` — penalty-term-based QAOA, with
  FrozenQubits-style hotspot freezing and Red-QAOA-style parameter
  initialization.
* :mod:`repro.baselines.choco_q` — commute-Hamiltonian-based QAOA
  (Choco-Q), whose mixer is the sum of all transition Hamiltonians.
* :mod:`repro.baselines.optimizer` — the COBYLA driver shared by every
  method (paper, Section 5.1).
"""

from repro.baselines.common import BaselineResult, VariationalBaseline
from repro.baselines.encoding import PenaltyEncoding, qubo_coefficients
from repro.baselines.hea import HardwareEfficientAnsatz
from repro.baselines.qaoa_penalty import PenaltyQAOA
from repro.baselines.choco_q import ChocoQ
from repro.baselines.optimizer import minimize_cobyla

__all__ = [
    "BaselineResult",
    "VariationalBaseline",
    "PenaltyEncoding",
    "qubo_coefficients",
    "HardwareEfficientAnsatz",
    "PenaltyQAOA",
    "ChocoQ",
    "minimize_cobyla",
]

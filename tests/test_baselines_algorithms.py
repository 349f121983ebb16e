"""HEA, P-QAOA and Choco-Q baselines."""

import numpy as np
import pytest

from repro.baselines import ChocoQ, HardwareEfficientAnsatz, PenaltyQAOA
from repro.exceptions import SolverError
from repro.linalg.bitvec import int_to_bits
from repro.problems import make_benchmark
from repro.simulators.statevector import simulate_statevector


@pytest.fixture(scope="module")
def f1():
    return make_benchmark("F1", 0)


class TestHEA:
    def test_parameter_count(self, f1):
        hea = HardwareEfficientAnsatz(f1, layers=5, shots=None)
        assert hea.num_parameters == 2 * f1.num_variables * 6

    def test_simulate_matches_circuit(self, f1):
        hea = HardwareEfficientAnsatz(f1, layers=2, shots=None, seed=0)
        params = hea.initial_parameters()
        fast = hea.simulate(params)
        circuit = hea.build_circuit(params)
        gate = simulate_statevector(circuit)
        np.testing.assert_allclose(fast, gate, atol=1e-9)

    @pytest.mark.parametrize("benchmark_id", ["F2", "S1"])
    def test_simulate_matches_circuit_at_default_depth(self, benchmark_id):
        # n = 10 and n = 11 (odd), five layers, full-range angles.
        problem = make_benchmark(benchmark_id, 3)
        hea = HardwareEfficientAnsatz(problem, shots=None)
        params = np.random.default_rng(7).uniform(-np.pi, np.pi, hea.num_parameters)
        fast = hea.simulate(params)
        gate = simulate_statevector(hea.build_circuit(params))
        np.testing.assert_allclose(fast, gate, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            np.abs(fast) ** 2, np.abs(gate) ** 2, rtol=0, atol=1e-14
        )

    def test_zero_parameters_give_all_zero_state(self, f1):
        hea = HardwareEfficientAnsatz(f1, layers=1, shots=None)
        state = hea.simulate(np.zeros(hea.num_parameters))
        assert abs(state[0]) == pytest.approx(1.0)

    def test_solve_returns_result(self, f1):
        hea = HardwareEfficientAnsatz(f1, layers=2, shots=None, max_iterations=40, seed=1)
        result = hea.solve()
        assert result.algorithm == "hea"
        assert result.arg >= 0
        assert 0 <= result.in_constraints_rate <= 1


class TestPenaltyQAOA:
    def test_parameter_count_is_2p(self, f1):
        qaoa = PenaltyQAOA(f1, layers=5, shots=None)
        assert qaoa.num_parameters == 10

    def test_simulate_matches_circuit(self, f1):
        qaoa = PenaltyQAOA(f1, layers=2, shots=None, parameter_init="zero")
        params = np.array([0.03, 0.4, 0.05, 0.2])
        fast = qaoa.simulate(params)
        gate = simulate_statevector(qaoa.build_circuit(params))
        # Equal up to global phase (constant QUBO term dropped in circuit).
        overlap = abs(np.vdot(fast, gate))
        assert overlap == pytest.approx(1.0, abs=1e-8)

    def test_cached_initial_state_survives_evaluations(self, f1):
        qaoa = PenaltyQAOA(f1, layers=2, shots=None, parameter_init="zero")
        pristine = qaoa._initial_state()
        pristine[:] = 0.0  # the caller owns its copy
        params = np.array([0.03, 0.4, 0.05, 0.2])
        first = qaoa.simulate(params)
        second = qaoa.simulate(params)
        assert np.array_equal(first, second)
        fresh = qaoa._initial_state()
        np.testing.assert_allclose(
            np.abs(fresh) ** 2, np.full(fresh.size, 1.0 / fresh.size), atol=1e-15
        )

    def test_cached_initial_state_rebuilt_after_frozen_change(self, f1):
        qaoa = PenaltyQAOA(f1, layers=1, shots=None, parameter_init="zero")
        assert np.count_nonzero(qaoa._initial_state()) == 1 << f1.num_variables
        qaoa.frozen = {0: 1}
        state = qaoa._initial_state()
        keys = np.arange(state.size)
        assert not np.any(state[(keys & 1) == 0])
        assert np.count_nonzero(state) == state.size // 2

    def test_zero_params_give_uniform_distribution(self, f1):
        qaoa = PenaltyQAOA(f1, layers=1, shots=None, parameter_init="zero")
        state = qaoa.simulate(np.zeros(2))
        probabilities = np.abs(state) ** 2
        np.testing.assert_allclose(
            probabilities, np.full_like(probabilities, probabilities[0]), atol=1e-10
        )

    def test_frozen_qubits_pin_hotspots(self, f1):
        qaoa = PenaltyQAOA(f1, layers=1, frozen_qubits=2, shots=None,
                           parameter_init="zero")
        assert len(qaoa.frozen) == 2
        state = qaoa.simulate(np.zeros(2))
        probabilities = np.abs(state) ** 2
        for key in np.flatnonzero(probabilities > 1e-12):
            bits = int_to_bits(int(key), f1.num_variables)
            for qubit, value in qaoa.frozen.items():
                assert bits[qubit] == value

    def test_redqaoa_init_beats_zero_init_loss_single_layer(self, f1):
        # The grid search optimises the single-layer landscape directly,
        # so at p=1 the seeded start must not lose to the uniform start.
        seeded = PenaltyQAOA(f1, layers=1, shots=None, parameter_init="redqaoa")
        zero = PenaltyQAOA(f1, layers=1, shots=None, parameter_init="zero")
        loss_seeded = seeded.penalty_expectation(
            seeded.distribution(seeded.initial_parameters())
        )
        loss_zero = zero.penalty_expectation(
            zero.distribution(zero.initial_parameters())
        )
        assert loss_seeded <= loss_zero + 1e-9


class TestChocoQ:
    def test_parameter_count_is_2p(self, f1):
        assert ChocoQ(f1, layers=5, shots=None).num_parameters == 10

    def test_state_stays_in_feasible_subspace(self, f1):
        chocoq = ChocoQ(f1, layers=3, shots=None)
        state = chocoq.simulate(np.array([0.3, 0.7, 0.1, 0.5, 0.2, 0.9]))
        feasible = set(f1.feasible_keys())
        for key in np.flatnonzero(np.abs(state) > 1e-10):
            assert int(key) in feasible

    def test_subspace_evolution_is_unitary(self, f1):
        chocoq = ChocoQ(f1, layers=2, shots=None)
        state = chocoq.simulate(np.array([0.4, 0.6, 0.2, 0.8]))
        assert np.linalg.norm(state) == pytest.approx(1.0)

    def test_mixer_matches_trotterized_circuit_weakly(self, f1):
        # First-order Trotter at small angle approximates the exact mixer.
        chocoq = ChocoQ(f1, layers=1, shots=None, trotter_steps=8)
        params = np.array([0.0, 0.15])
        exact = chocoq.simulate(params)
        gate = simulate_statevector(chocoq.build_circuit(params))
        overlap = abs(np.vdot(exact, gate))
        assert overlap > 0.97

    def test_solve_hits_full_constraint_rate(self, f1):
        chocoq = ChocoQ(f1, layers=3, shots=None, max_iterations=60)
        result = chocoq.solve()
        assert result.in_constraints_rate == pytest.approx(1.0)
        assert result.arg < 2.0


class TestCrossAlgorithmOrdering:
    def test_paper_table1_shape(self, f1):
        # Rasengan < Choco-Q << penalty methods on ARG (noise-free).
        from repro.core.solver import RasenganConfig, RasenganSolver

        rasengan = RasenganSolver(
            f1, config=RasenganConfig(shots=None, max_iterations=200, seed=0)
        ).solve()
        chocoq = ChocoQ(f1, layers=5, shots=None, max_iterations=150).solve()
        pqaoa = PenaltyQAOA(f1, layers=5, shots=None, max_iterations=150, seed=0).solve()
        assert rasengan.arg <= chocoq.arg + 0.05
        assert chocoq.arg < pqaoa.arg


class TestChocoQTrotter:
    def test_second_order_beats_first_order(self, f1):
        params = np.array([0.0, 0.35])
        first = ChocoQ(f1, layers=1, shots=None, trotter_steps=2, trotter_order=1)
        second = ChocoQ(f1, layers=1, shots=None, trotter_steps=2, trotter_order=2)
        exact = first.simulate(params)
        overlap_1 = abs(np.vdot(exact, simulate_statevector(first.build_circuit(params))))
        overlap_2 = abs(np.vdot(exact, simulate_statevector(second.build_circuit(params))))
        assert overlap_2 >= overlap_1 - 1e-9

    def test_invalid_order_rejected(self, f1):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            ChocoQ(f1, trotter_order=3)

    def test_more_steps_converge_to_exact(self, f1):
        params = np.array([0.0, 0.4])
        exact = ChocoQ(f1, layers=1, shots=None).simulate(params)
        overlaps = []
        for steps in (1, 4, 16):
            algo = ChocoQ(f1, layers=1, shots=None, trotter_steps=steps)
            gate = simulate_statevector(algo.build_circuit(params))
            overlaps.append(abs(np.vdot(exact, gate)))
        assert overlaps == sorted(overlaps)
        assert overlaps[-1] > 0.999


class TestParameterCountValidation:
    @pytest.mark.parametrize("cls", [HardwareEfficientAnsatz, PenaltyQAOA, ChocoQ])
    @pytest.mark.parametrize("delta", [-1, 3])
    def test_wrong_length_raises_solver_error(self, f1, cls, delta):
        baseline = cls(f1, shots=None)
        expected = baseline.num_parameters
        wrong = np.zeros(expected + delta)
        message = f"expected {expected} parameters, got {expected + delta}"
        with pytest.raises(SolverError, match=message):
            baseline.distribution(wrong)
        with pytest.raises(SolverError, match=message):
            baseline.simulate(wrong)


class TestShotValidation:
    @pytest.mark.parametrize("cls", [HardwareEfficientAnsatz, PenaltyQAOA, ChocoQ])
    @pytest.mark.parametrize("shots", [0, -8, 16.0, True, "1024"])
    def test_invalid_shots_rejected(self, f1, cls, shots):
        # shots=0 used to score an empty sample as expectation 0 / ARG 1.
        with pytest.raises(SolverError, match="shots"):
            cls(f1, shots=shots)

    @pytest.mark.parametrize("shots", [None, 1, np.int64(64)])
    def test_valid_shots_accepted(self, f1, shots):
        assert HardwareEfficientAnsatz(f1, shots=shots).shots == shots

"""The COBYLA driver: its m = 0 kernels against SciPy and pyprima."""

import warnings

import numpy as np
import pytest

from repro.baselines.optimizer import minimize_cobyla
from repro.exceptions import SolverError

#: Why a comparison with SciPy's COBYLA skips on a SciPy before 1.16.
_NO_PYPRIMA = (
    "SciPy without scipy._lib.pyprima (< 1.16): its COBYLA is not PRIMA's, "
    "so it is no reference for the in-repo loop"
)


def _scipy_minimize():
    """``scipy.optimize.minimize``, when its COBYLA is PRIMA's."""
    pytest.importorskip("scipy._lib.pyprima", reason=_NO_PYPRIMA)
    from scipy.optimize import minimize

    return minimize


def _trstlp_edge_cases():
    """``(id, g)``: the m = 0 kernel's edge inputs, one per ``trstlp`` branch."""
    eps = np.finfo(float).eps
    tiny = np.sqrt(np.finfo(float).tiny)
    base = np.random.default_rng(5).normal(size=8)

    def with_entry(index, value):
        g = base.copy()
        g[index] = value
        return g

    return [
        ("zero", np.zeros(8)),
        ("zero-n1", np.zeros(1)),
        # An exact zero: planerot's x[0] == 0 branch, and a skipped
        # rotation below it.
        ("partly-zero", with_entry(2, 0.0)),
        ("zero-last", with_entry(7, 0.0)),
        ("zero-first", np.array([0.0, -2.1e-13, 38.6])),
        ("zero-first-negative", np.array([0.0, -39.7, -1.13])),
        # |g_3| <= EPS * ||g_4:||: planerot's c = 0 branch.
        ("tiny-ratio", with_entry(3, 0.5 * eps * np.linalg.norm(base[4:]))),
        # |g_k+1| <= EPS * |g_k| and the reverse, for one pair.
        ("eps-ratio-pair", np.array([1.0, 0.5 * eps])),
        ("eps-ratio-pair-reversed", np.array([-0.5 * eps, 1.0])),
        ("eps-ratio-pair-equal", np.array([eps, 1.0])),
        ("eps-ratio-pair-equal-reversed", np.array([1.0, eps])),
        # Below sqrt(REALMIN): planerot's scaled branches.
        ("below-sqrt-realmin", np.array([0.5 * tiny, -0.3 * tiny, 0.7 * tiny])),
        ("below-sqrt-realmin-mixed", with_entry(4, 0.5 * tiny)),
        ("above-1e12", with_entry(1, 2e12)),
        ("above-1e12-tiny-rest", np.array([3e14, 1e-150, -2e-3, 5.0])),
        ("above-1e300", with_entry(5, -1e300)),
        ("subnormal", with_entry(6, 5e-324)),
        ("nan", with_entry(0, np.nan)),
        ("nan-last", with_entry(7, np.nan)),
        ("inf", with_entry(3, np.inf)),
        ("inf-and-1e300", np.array([0.0, 1e300, np.inf])),
        ("inf-n1", np.array([-np.inf])),
        ("negative-n1", np.array([-0.7])),
        ("tiny-n1", np.array([1e-40])),
        # ||sdirn||**2 = 1/||g||**2 <= EPS * delta**2: trstlp returns d = 0.
        ("large", base * 1e10),
    ]


def _simplex(n, hilbert=False):
    """``(sim, simi, fval)`` as the COBYLA driver holds them.

    The pole ``fval[n]`` is the lowest value and ``simi`` inverts
    ``sim[:, :n]``.  ``hilbert`` makes ``sim[:, :n]`` a Hilbert matrix,
    too ill-conditioned past n = 13 for ``inv`` to repair.
    """
    rng = np.random.default_rng(n)
    sim = np.empty((n, n + 1))
    if hilbert:
        sim[:, :n] = 0.5 / (np.arange(n)[:, None] + np.arange(n)[None, :] + 1.0)
    else:
        noise = rng.normal(size=(n, n)) / np.sqrt(n)
        sim[:, :n] = 0.5 * (np.eye(n) + 0.3 * noise)
    sim[:, n] = rng.uniform(-1.0, 1.0, n)
    fval = rng.normal(size=n + 1)
    fval[n] = fval.min() - 0.1
    return sim, np.linalg.inv(sim[:, :n]), fval


def _pole_edge(edge, n):
    """A simplex for ``updatepole``'s edge case ``edge``."""
    sim, simi, fval = _simplex(n, hilbert=edge.startswith("damaging"))
    pole = fval[n]
    if edge in ("switch", "damaging-switch"):
        fval[n - 1] = pole - 1.0
    elif edge == "tie":
        fval[[0, n - 1]] = pole - 1.0
    elif edge == "tie-with-pole":
        fval[0] = pole
    elif edge == "nan-first":
        # pyprima's builtin min starts from the NaN: the pole stays.
        fval[[0, n - 1]] = np.nan, pole - 1.0
    elif edge == "nan-later":
        # The builtin min skips a later NaN; the masked argmin keeps it.
        fval[[0, n - 1]] = pole - 1.0, np.nan
    elif edge == "repair":
        simi *= 1.25
    return sim, simi, fval


class TestCobylaOptimizer:
    def test_budget_below_simplex_floor_matches_explicit_floor(self):
        target = np.linspace(-1.0, 1.0, 6)

        def loss(x):
            return float(((x - target) ** 2).sum())

        x0 = np.zeros(6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            low = minimize_cobyla(loss, x0, max_iterations=3)
            floor = minimize_cobyla(loss, x0, max_iterations=x0.size + 2)
        assert np.array_equal(low, floor)

    @staticmethod
    def _objective(kind, n):
        """A fresh loss that records every point it is handed."""
        target = np.linspace(-1.0, 1.0, n)
        rng = np.random.default_rng(11)
        points = []

        def loss(x):
            points.append(x.copy())
            value = float(((x - target) ** 2).sum())
            if kind == "noisy":
                value += 0.05 * rng.normal()
            return value

        return loss, points

    def _assert_same_run(self, kind, n, budget=60, rhobeg=0.5):
        x0 = np.full(n, 0.3)
        loss, scipy_points = self._objective(kind, n)
        reference = _scipy_minimize()(
            loss, x0, method="COBYLA", options={"maxiter": budget, "rhobeg": rhobeg}
        )
        loss, points = self._objective(kind, n)
        best = minimize_cobyla(loss, x0, max_iterations=budget, rhobeg=rhobeg)
        assert best.tobytes() == reference.x.tobytes()
        assert [p.tobytes() for p in points] == [p.tobytes() for p in scipy_points]

    @pytest.mark.parametrize("kind", ["quadratic", "noisy"])
    @pytest.mark.parametrize("n", [1, 3, 8, 15])
    def test_matches_scipy_point_for_point(self, n, kind):
        # The noisy loss draws from its RNG on every call, so one extra
        # or missing evaluation would shift every later point.
        self._assert_same_run(kind, n)

    @pytest.mark.parametrize("kind", ["above-funcmax", "piecewise-constant"])
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_matches_scipy_on_clipped_and_tied_losses(self, n, kind):
        # PRIMA clips values above FUNCMAX = 1e30 (so they tie) and keeps
        # the first of tied points; check_finite_loss lets both through.
        minimize = _scipy_minimize()
        target = np.linspace(-1.0, 1.0, n)
        x0 = np.full(n, 0.3)
        reach = np.abs(x0 - target).sum()

        def start():
            points = []

            def loss(x):
                points.append(x.copy())
                if kind == "above-funcmax":
                    # 1.3e30 at x0: one rhobeg step out stays above
                    # FUNCMAX, one step in falls below it.
                    excess = np.abs(x - target).sum() - reach
                    return float(1.3e30 * np.exp(2.0 * excess))
                return float(np.floor(4.0 * np.abs(x - target)).sum())

            return loss, points

        loss, scipy_points = start()
        reference = minimize(
            loss, x0, method="COBYLA", options={"maxiter": 80, "rhobeg": 0.5}
        )
        loss, points = start()
        best = minimize_cobyla(loss, x0, max_iterations=80, rhobeg=0.5)
        assert best.tobytes() == reference.x.tobytes()
        assert [p.tobytes() for p in points] == [p.tobytes() for p in scipy_points]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_rejected(self, bad):
        # scipy would silently start from a different point.
        calls = []
        with pytest.raises(SolverError, match="finite"):
            minimize_cobyla(calls.append, np.array([0.1, bad, 0.2]))
        assert calls == []

    @pytest.mark.parametrize("path", ["in-repo"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_loss_rejected(self, path, bad):
        # PRIMA would replace NaN and +inf by a large number and run on
        # -inf into NaN arithmetic, returning a meaningless point.
        calls = []

        def loss(x):
            calls.append(1)
            if len(calls) == 3:
                return np.array([bad])
            return float(((x - 0.3) ** 2).sum())

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match=rf"{bad!r} on evaluation 3"):
                minimize_cobyla(loss, np.zeros(3), max_iterations=30)
        assert len(calls) == 3

    @pytest.mark.parametrize("path", ["in-repo"])
    @pytest.mark.parametrize("bad", [0, -0.5, np.nan, np.inf])
    def test_bad_rhobeg_rejected(self, path, bad):
        # PRIMA would warn "Invalid RHOBEG" and optimise with 1 instead.
        calls = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match=rf"rhobeg .* got {bad!r}$"):
                minimize_cobyla(calls.append, np.zeros(3), rhobeg=bad)
        assert calls == []

    def test_multidimensional_start_rejected(self):
        with pytest.raises(SolverError, match=r"shape \(2, 2\)"):
            minimize_cobyla(lambda x: 0.0, np.zeros((2, 2)))

    def test_zero_dimensional_start_matches_scipy(self):
        # scipy reads a 0-d x0 as a 1-vector; so does minimize_cobyla.
        loss, scipy_points = self._objective("quadratic", 1)
        reference = _scipy_minimize()(
            loss, np.array(0.3), method="COBYLA", options={"maxiter": 30, "rhobeg": 0.5}
        )
        loss, points = self._objective("quadratic", 1)
        best = minimize_cobyla(loss, np.array(0.3), max_iterations=30)
        assert best.shape == reference.x.shape == (1,)
        assert best.tobytes() == reference.x.tobytes()
        assert [p.shape for p in points] == [p.shape for p in scipy_points]
        assert [p.tobytes() for p in points] == [p.tobytes() for p in scipy_points]

    @staticmethod
    def _assert_trstlp_matches(g, delta):
        """The m = 0 kernel returns pyprima's ``trstlp`` step, byte for byte."""
        pytest.importorskip("scipy._lib.pyprima")
        from scipy._lib.pyprima.cobyla.trustregion import trstlp

        from repro.baselines.cobyla import _trstlp_unconstrained

        with np.errstate(all="ignore"):  # pyprima meets inf * 0 on a non-finite g
            expected = trstlp(np.zeros((g.size, 0)), np.zeros(0), delta, g.copy())
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            d = _trstlp_unconstrained(g, delta)
        assert d.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("scale", [1e-8, 1e-3, 1.0, 1e4, 1e8])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 15, 40, 120, 130])
    def test_trstlp_kernel_matches_pyprima(self, n, scale):
        rng = np.random.default_rng([n, int(np.log10(scale)) + 10])
        for delta in (1e-4, 0.1, 0.5):
            self._assert_trstlp_matches(rng.normal(size=n) * scale, delta)

    @pytest.mark.parametrize(
        "g", [pytest.param(g, id=name) for name, g in _trstlp_edge_cases()]
    )
    def test_trstlp_kernel_edge_input(self, g):
        for delta in (1e-4, 0.5, 1e-170):
            self._assert_trstlp_matches(g, delta)

    @pytest.mark.parametrize("rhobeg", [1e-8, 1e-6, 0.5, 10.0])
    def test_preproc_rhoend_matches_pyprima(self, rhobeg):
        """The ported ``rhoend`` adjustment gives pyprima's options and warning."""
        pytest.importorskip("scipy._lib.pyprima")
        from scipy._lib.pyprima.common.consts import (
            CWEIGHT_DEFAULT,
            ETA1_DEFAULT,
            GAMMA1_DEFAULT,
            GAMMA2_DEFAULT,
            MAXFUN_DIM_DEFAULT,
        )
        from scipy._lib.pyprima.common.preproc import preproc

        from repro.baselines.cobyla import RHOEND, _preproc_rhoend

        num_vars, maxfun = 5, 40
        eta2 = (ETA1_DEFAULT + 2) / 3
        with warnings.catch_warnings(record=True) as expected_warnings:
            warnings.simplefilter("always")
            options = preproc(
                "COBYLA", num_vars, 0, maxfun,
                max(maxfun, num_vars + 2, MAXFUN_DIM_DEFAULT * num_vars),
                -np.inf, rhobeg, RHOEND, num_constraints=0, maxfilt=2000,
                ctol=np.sqrt(np.finfo(float).eps), cweight=CWEIGHT_DEFAULT,
                eta1=ETA1_DEFAULT, eta2=eta2, gamma1=GAMMA1_DEFAULT,
                gamma2=GAMMA2_DEFAULT, is_constrained=False,
            )
        with warnings.catch_warnings(record=True) as actual_warnings:
            warnings.simplefilter("always")
            rhoend = _preproc_rhoend(rhobeg, RHOEND)
        _, maxfun_out, _, _, rhobeg_out, rhoend_out, *_ = options
        eta1_out, eta2_out, gamma1_out, gamma2_out = options[10:14]
        assert (maxfun_out, rhobeg_out) == (maxfun, rhobeg)
        assert (eta1_out, eta2_out, gamma1_out, gamma2_out) == (
            ETA1_DEFAULT, eta2, GAMMA1_DEFAULT, GAMMA2_DEFAULT
        )
        assert np.float64(rhoend).tobytes() == np.float64(rhoend_out).tobytes()
        assert [str(w.message) for w in actual_warnings] == [
            str(w.message) for w in expected_warnings
        ]
        assert bool(actual_warnings) is (rhobeg < RHOEND)

    @staticmethod
    def _assert_simplex_helper_matches(helper, **inputs):
        """An m = 0 simplex helper returns pyprima's bits, and leaves the
        arrays it updates in place as pyprima leaves them; returns
        pyprima's payload."""
        pytest.importorskip("scipy._lib.pyprima")
        from repro.verify.checks import _run_simplex_helper

        expected, _ = _run_simplex_helper(helper, inputs, use_pyprima=True)
        actual, _ = _run_simplex_helper(helper, inputs, use_pyprima=False)
        as_bytes = lambda payload: {
            key: value.tobytes() if isinstance(value, np.ndarray) else value
            for key, value in payload.items()
        }
        assert as_bytes(actual) == as_bytes(expected)
        return expected

    @pytest.mark.parametrize(
        "edge",
        ["stay", "switch", "tie", "tie-with-pole", "nan-first", "nan-later", "repair"],
    )
    @pytest.mark.parametrize("n", [2, 3, 8, 15])
    def test_updatepole_matches_pyprima(self, n, edge):
        sim, simi, fval = _pole_edge(edge, n)
        self._assert_simplex_helper_matches("updatepole", sim=sim, simi=simi, fval=fval)

    @pytest.mark.parametrize(
        "edge",
        ["inner", "inner-best", "inner-tie", "pole-best", "pole-worst", "repair"],
    )
    @pytest.mark.parametrize("n", [1, 2, 8, 15, 120])
    def test_updatexfc_matches_pyprima(self, n, edge):
        sim, simi, fval = _simplex(n)
        if edge == "repair":
            simi *= 1.25
        pole = fval[n]
        f = {
            "inner-best": pole - 1.0,
            "inner-tie": pole,
            "pole-best": pole - 1.0,
            "pole-worst": pole + 10.0,
        }.get(edge, pole + 0.5)
        rng = np.random.default_rng(n + 100)
        for _ in range(3):
            self._assert_simplex_helper_matches(
                "updatexfc", sim=sim, simi=simi, fval=fval,
                jdrop=n if edge.startswith("pole") else n // 2,
                d=rng.normal(size=n) * 0.2, f=f,
            )

    @pytest.mark.parametrize("helper", ["updatepole", "updatexfc"])
    @pytest.mark.parametrize("edge", ["damaging", "damaging-switch"])
    def test_damaging_rounding_matches_pyprima(self, helper, edge):
        # updatepole returns copies taken before the switch; updatexfc
        # returns sim and simi as its rank-one update left them.
        pytest.importorskip("scipy._lib.pyprima")
        from scipy._lib.pyprima.common.infos import DAMAGING_ROUNDING

        sim, simi, fval = _pole_edge(edge, 15)
        inputs = dict(sim=sim, simi=simi, fval=fval)
        if helper == "updatexfc":
            d = np.random.default_rng(115).normal(size=15) * 0.2
            inputs.update(jdrop=3, d=d, f=fval[3] + 0.5)
        expected = self._assert_simplex_helper_matches(helper, **inputs)
        assert expected["info"] == DAMAGING_ROUNDING

    @pytest.mark.parametrize("ximproved", [True, False])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 15, 120])
    def test_setdrop_tr_matches_pyprima(self, n, ximproved):
        sim, simi, _ = _simplex(n)
        rng = np.random.default_rng(n + 200)
        for scale in (1e-3, 0.2, 2.0):
            self._assert_simplex_helper_matches(
                "setdrop_tr", ximproved=ximproved, d=rng.normal(size=n) * scale,
                delta=0.4, rho=0.1, sim=sim, simi=simi,
            )

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 15, 120])
    def test_geostep_matches_pyprima(self, n):
        _, simi, fval = _simplex(n)
        for jdrop in sorted({0, n // 2, n - 1}):
            self._assert_simplex_helper_matches(
                "geostep", jdrop=jdrop, delbar=0.2, fval=fval, simi=simi
            )



class TestObjective:
    """``_Objective.value``: PRIMA's ``evaluate`` at m = 0."""

    @staticmethod
    def _recording(x0):
        """An ``_Objective`` at ``x0`` whose loss records each argument."""
        from repro.baselines.cobyla import _Objective

        seen = []

        def loss(x):
            seen.append(x)
            return float(np.abs(x).sum())

        return _Objective(loss, np.asarray(x0, dtype=float)), seen

    def test_finite_point_reaches_the_loss_as_a_copy(self):
        objective, seen = self._recording([0.0, 0.0])
        x = np.array([0.25, -0.0])
        assert objective.value(x) == 0.25
        assert len(seen) == 2
        assert not np.shares_memory(seen[-1], x)
        assert not np.shares_memory(seen[-1], objective.x)
        assert not np.shares_memory(objective.x, x)
        assert seen[-1].tobytes() == x.tobytes()  # -0.0 kept
        seen[-1][0] = 9.0
        x[1] = 9.0
        assert objective.x.tolist() == [0.25, 0.0]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_infinite_entry_is_clipped_and_breaks(self, sign):
        pytest.importorskip("scipy._lib.pyprima")
        from scipy._lib.pyprima.common.consts import REALMAX
        from scipy._lib.pyprima.common.infos import NAN_INF_X

        from repro.baselines.cobyla import _checkbreak

        objective, seen = self._recording([0.0, 0.0])
        x = np.array([0.5, sign * np.inf])
        f = objective.value(x)
        assert seen[-1].tolist() == [0.5, sign * REALMAX]
        assert np.isinf(x[1])  # the caller's x is not clipped in place
        assert _checkbreak(100, 3, f, x) == NAN_INF_X

    def test_nan_point_returns_its_sum_without_calling_the_loss(self):
        objective, seen = self._recording([0.0, 0.0])
        f = objective.value(np.array([0.5, np.nan]))
        assert np.isnan(f)
        assert len(seen) == objective.calls == 1

    def test_repeated_point_is_served_from_the_memo(self):
        objective, seen = self._recording([0.0, 0.0])
        x = np.array([0.5, -0.25])
        first = objective.value(x)
        assert objective.value(x.copy()) == first
        assert len(seen) == objective.calls == 2

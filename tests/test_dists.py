"""Densities, reparameterized samplers, implicit Gamma gradients, enumeration."""

import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy import special as sps

from hvi import dists, oracle, special
from hvi.dists import UnsupportedKindError
from hvi.models import with_first
from hvi.rng import RngStream
from hvi.tape import DomainError, NodeId, Tape


def lp(dist, value):
    return float(dists.log_prob_value(dist, value))


class TestLogProb:
    def test_standard_normal_at_zero(self):
        assert lp(dists.normal(0, 1), 0.0) == pytest.approx(-0.918939, abs=1e-6)

    def test_exponential_half_at_two(self):
        assert lp(dists.exponential(0.5), 2.0) == pytest.approx(math.log(0.5) - 1.0, abs=1e-12)

    def test_matches_scipy_across_kinds(self):
        rng = np.random.default_rng(0)
        x = rng.random(50) * 3 + 0.1
        np.testing.assert_allclose(dists.log_prob_value(dists.normal(0.3, 1.7), x),
                                   stats.norm.logpdf(x, 0.3, 1.7), rtol=1e-12)
        np.testing.assert_allclose(dists.log_prob_value(dists.exponential(1.3), x),
                                   stats.expon.logpdf(x, scale=1 / 1.3), rtol=1e-12)
        np.testing.assert_allclose(dists.log_prob_value(dists.gamma(2.5, 1.5), x),
                                   stats.gamma.logpdf(x, 2.5, scale=1 / 1.5), rtol=1e-12)

    def test_vector_params_sum_over_last_axis(self):
        mean = np.array([0.0, 1.0])
        val = np.array([[0.0, 1.0], [1.0, 1.0]])
        out = dists.log_prob_value(dists.normal(mean, 1.0), val)
        expect = stats.norm.logpdf(val, mean, 1.0).sum(axis=1)
        np.testing.assert_allclose(out, expect, rtol=1e-12)

    def test_bernoulli_logits_form_and_gradient_across_range(self):
        # x*l - softplus(l) against x*log sigmoid(l) + (1-x)*log sigmoid(-l),
        # for |l| up to 700 and grey-level x, with no floating-point warning.
        l = np.concatenate([np.linspace(-700, 700, 141), np.linspace(-40, 40, 321)])
        for level in (0.0, 1.0, 0.3):
            x = np.full_like(l, level)
            want = x * sps.log_expit(l) + (1.0 - x) * sps.log_expit(-l)
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                t = Tape()
                leaf = t.leaf(l)
                out = dists.log_prob(dists.bernoulli(logits=leaf), x, t)
                g = np.asarray(t.backward(t.sum(out))[leaf])
            np.testing.assert_allclose(t.val(out), want, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(g, x - sps.expit(l), rtol=1e-12, atol=1e-15)

    def test_support_violations_raise(self):
        with pytest.raises(ValueError):
            lp(dists.gamma(2, 1), -0.5)
        with pytest.raises(ValueError):
            lp(dists.exponential(1.0), -0.1)

    def test_invariant_violations_raise_at_construction(self):
        with pytest.raises(ValueError):
            dists.normal(0, -1.0)


NORMALIZATION_CASES = [
    dists.exponential(0.7),
    dists.gamma(2.3, 1.4),
    dists.gamma(0.6, 0.5),
]


@pytest.mark.parametrize("dist", NORMALIZATION_CASES)
def test_positive_support_densities_normalize(dist):
    logf = lambda psi: dists.log_prob_value(dist, psi)
    total = oracle.log_integral_positive(logf, tol=1e-10)
    assert total == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("dist", [dists.normal(0.4, 1.3)])
def test_real_support_densities_normalize(dist):
    half_pos = oracle.log_integral_positive(lambda x: dists.log_prob_value(dist, x))
    half_neg = oracle.log_integral_positive(lambda x: dists.log_prob_value(dist, -x))
    total = np.logaddexp(half_pos, half_neg)
    assert total == pytest.approx(0.0, abs=1e-6)


BLOCK_FAMILIES = {
    "normal": (dists.normal, 2),
    "exponential": (dists.exponential, 1),
    "gamma": (dists.gamma, 2),
    "bernoulli": (lambda logits: dists.bernoulli(logits=logits), 1),
}


class TestSampleBlocks:
    """n·R rows meet R rows block-wise in log_prob, in both directions; the
    reference repeats the shorter side explicitly with t.concat([v] * n)."""

    @pytest.mark.parametrize("kind", sorted(BLOCK_FAMILIES))
    @pytest.mark.parametrize("taller", ["value", "params"])
    def test_blocks_match_repeated_reference(self, kind, taller):
        family, n_params = BLOCK_FAMILIES[kind]
        R, D, n = 3, 2, 4
        g = np.random.default_rng(5)
        v_rows, p_rows = (n * R, R) if taller == "value" else (R, n * R)
        params = [g.uniform(0.5, 2.0, (p_rows, D)) for _ in range(n_params)]
        value = g.uniform(0.1, 3.0, (v_rows, D))
        weights = g.standard_normal(n * R)

        def run(repeat):
            t = Tape()
            ps, v = [t.leaf(p) for p in params], t.leaf(value)
            used_ps, used_v = ps, v
            if repeat and taller == "value":
                used_ps = [t.concat([p] * n) for p in ps]
            elif repeat:
                used_v = t.concat([v] * n)
            out = dists.log_prob(family(*used_ps), used_v, t)
            grads = t.backward(t.sum(t.mul(out, weights)))
            return t.val(out), [grads[leaf] for leaf in ps + [v]]

        got, got_grads = run(repeat=False)
        want, want_grads = run(repeat=True)
        assert got.shape == (n * R,)
        np.testing.assert_allclose(got, want, rtol=1e-12)
        for a, b in zip(got_grads, want_grads):
            np.testing.assert_allclose(a, b, rtol=1e-12)

    @pytest.mark.parametrize("v_rows,p_rows", [(6, 4), (4, 6)])
    def test_rows_not_a_multiple_raise(self, v_rows, p_rows):
        short = "parameters" if v_rows > p_rows else "value"
        t = Tape()
        spec = dists.normal(t.leaf(np.zeros((p_rows, 2))), 1.0)
        with pytest.raises(ValueError, match=r"\b6 sample rows are not a multiple of the 4 rows"
                                             rf" of the density's {short}$"):
            dists.log_prob(spec, np.zeros((v_rows, 2)), t)

    def test_sample_blocks_of_parameter_rows(self):
        t = Tape(requires_grad=False)
        mean = np.arange(6.0).reshape(3, 2)
        draws = t.val(dists.sample_reparam(dists.normal(mean, 1e-9), RngStream(0), t, n=4))
        assert draws.shape == (12, 2)
        np.testing.assert_allclose(draws, np.tile(mean, (4, 1)), atol=1e-6)


LOG_2PI = float(np.log(2.0 * np.pi))


def unfused_normal(t, value, mean, stddev, reduce):
    """The Normal density as an eight-node chain: sub, div, square, mul, log,
    add, sub, then the trailing-axis sum (and n·R flattening) when reduced."""
    z = t.div(t.sub(value, mean), stddev)
    lp = t.sub(t.mul(-0.5, t.square(z)), t.add(t.log(stddev), 0.5 * LOG_2PI))
    if not reduce:
        return lp
    lp = t.sum(lp, axis=-1)
    return t.reshape(lp, (-1,)) if np.ndim(t.val(lp)) > 1 else lp


class TestFusedNormal:
    """``dists.log_prob``'s one Normal node against the unfused chain: the
    same bits in values and in every leaf adjoint."""

    R, D, N = 3, 4, 5

    def _run(self, case, fused):
        g = np.random.default_rng(23)
        R, D, N = self.R, self.D, self.N
        v_shape, p_shape = {"scalar_sd": ((R, D), (R, D)), "live_sd": ((R, D), (R, D)),
                            "tall_value": ((N * R, D), (R, D)),
                            "tall_params": ((R, D), (N * R, D)),
                            "one_d": ((D,), (D,)), "sd_reused": ((R, D), (R, D))}[case]
        x0 = g.standard_normal(v_shape)
        mu0 = g.standard_normal(p_shape)
        s0 = g.uniform(-1.0, 1.5, p_shape)
        t = Tape()
        x, mu, s_leaf = t.leaf(x0), t.leaf(mu0), t.leaf(s0)
        # Live value and mean through one op each, so adjoints pass intermediates.
        value, mean = t.mul(x, 1.3), t.add(mu, 0.2)
        sd = 0.7 if case == "scalar_sd" else t.softplus(s_leaf)
        if fused:
            out = dists.log_prob(dists.normal(mean, sd), value, t)
        else:
            v, m, s = value, mean, sd
            if case == "tall_value":
                v = t.reshape(value, (N, R, D))
            elif case == "tall_params":
                m, s = t.reshape(mean, (N, R, D)), t.reshape(sd, (N, R, D))
            out = unfused_normal(t, v, m, s, reduce=case != "one_d")
        obj = t.sum(t.mul(out, g.standard_normal(t.val(out).shape)))
        if case == "sd_reused":
            obj = t.add(obj, t.sum(t.mul(sd, sd)))
        grads = t.backward(obj)
        leaves = [x, mu] if case == "scalar_sd" else [x, mu, s_leaf]
        return t.val(out), [grads[leaf] for leaf in leaves], t

    @pytest.mark.parametrize("case", ["scalar_sd", "live_sd", "tall_value", "tall_params",
                                      "one_d", "sd_reused"])
    def test_values_and_leaf_adjoints_are_bitwise_equal(self, case):
        got, got_grads, t = self._run(case, fused=True)
        want, want_grads, _ = self._run(case, fused=False)
        assert t._ops.count("normal_log_prob") == 1 and "log" not in t._ops
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        for a, b in zip(got_grads, want_grads):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("live", [False, True])
    def test_nonpositive_stddev_raises_the_chain_opcodes(self, live):
        t = Tape()
        make = t.leaf if live else t.const
        with pytest.raises(DomainError) as zero:
            dists.log_prob(dists.normal(0.0, make(np.array([1.0, 0.0, -2.0]))), np.ones(3), t)
        assert zero.value.opcode == "div" and zero.value.offending_value == 0.0
        with pytest.raises(DomainError) as neg:
            dists.log_prob(dists.normal(0.0, make(np.array([1.0, -2.0, -3.0]))), np.ones(3), t)
        assert neg.value.opcode == "log" and neg.value.offending_value == -2.0


def unfused_bernoulli(t, value, logits, reduce):
    """The Bernoulli density as the chain x*l - softplus(l) (mul, softplus,
    sub), then the trailing-axis sum (and n·R flattening) when reduced."""
    lp = t.sub(t.mul(value, logits), t.softplus(logits))
    if not reduce:
        return lp
    lp = t.sum(lp, axis=-1)
    return t.reshape(lp, (-1,)) if np.ndim(t.val(lp)) > 1 else lp


class TestFusedBernoulli:
    """``dists.log_prob``'s one Bernoulli node against the unfused chain: the
    same bits in values and in every leaf adjoint."""

    R, D, N = 3, 4, 5
    CASES = ["equal_rows", "tall_logits", "tall_value", "one_d", "live_value", "logits_reused"]

    def _run(self, case, fused):
        g = np.random.default_rng(29)
        R, D, N = self.R, self.D, self.N
        v_shape, l_shape = {"tall_logits": ((R, D), (N * R, D)),
                            "tall_value": ((N * R, D), (R, D)),
                            "one_d": ((D,), (D,))}.get(case, ((R, D), (R, D)))
        x0 = g.random(v_shape)                  # grey levels, and some 0s and 1s
        x0[..., 0], x0[..., -1] = 0.0, 1.0
        l0 = g.uniform(-6.0, 6.0, l_shape)
        l0.flat[:2] = -40.0, 40.0
        t = Tape()
        x_leaf, l_leaf = t.leaf(x0), t.leaf(l0)
        logits = t.mul(l_leaf, 1.3)             # live, through one op
        value = t.mul(x_leaf, 0.9) if case == "live_value" else x0
        if fused:
            out = dists.log_prob(dists.bernoulli(logits=logits), value, t)
        else:
            v, l = value, logits
            if case == "tall_logits":
                l = t.reshape(logits, (N, R, D))
            elif case == "tall_value":
                v = np.reshape(value, (N, R, D))
            out = unfused_bernoulli(t, v, l, reduce=case != "one_d")
        obj = t.sum(t.mul(out, g.standard_normal(t.val(out).shape)))
        if case == "logits_reused":
            obj = t.add(obj, t.sum(t.mul(logits, logits)))
        grads = t.backward(obj)
        leaves = [l_leaf, x_leaf] if case == "live_value" else [l_leaf]
        return t.val(out), [grads[leaf] for leaf in leaves], t

    @pytest.mark.parametrize("case", CASES)
    def test_values_and_leaf_adjoints_are_bitwise_equal(self, case):
        got, got_grads, t = self._run(case, fused=True)
        want, want_grads, _ = self._run(case, fused=False)
        assert t._ops.count("bernoulli_log_prob") == 1 and "softplus" not in t._ops
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        for a, b in zip(got_grads, want_grads):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_no_grad_forward_matches_grad_forward(self):
        g = np.random.default_rng(3)
        x, l = (g.random((3, 4)) < 0.5).astype(float), g.uniform(-9, 9, (15, 4))
        values = []
        for requires_grad in (True, False):
            t = Tape(requires_grad=requires_grad)
            values.append(t.val(dists.log_prob(dists.bernoulli(logits=t.leaf(l)), x, t)))
        assert values[0].tobytes() == values[1].tobytes()


def unfused_gamma(t, value, conc, rate, reduce):
    """The Gamma density as the chain (a log r + (a - 1) log x) - (lgamma(a)
    + r x), then the trailing-axis sum (and n·R flattening) when reduced."""
    lp = t.sub(t.add(t.mul(conc, t.log(rate)), t.mul(t.sub(conc, 1.0), t.log(value))),
               t.add(t.lgamma(conc), t.mul(rate, value)))
    if not reduce:
        return lp
    lp = t.sum(lp, axis=-1)
    return t.reshape(lp, (-1,)) if np.ndim(t.val(lp)) > 1 else lp


class TestFusedGamma:
    """``dists.log_prob``'s one Gamma node against the unfused chain: the
    same bits in values and in every leaf adjoint."""

    R, D, N = 3, 4, 5
    CASES = ["equal_rows", "tall_value", "tall_params", "one_d", "conc_reused", "live_sample"]

    def _run(self, case, fused):
        g = np.random.default_rng(37)
        R, D, N = self.R, self.D, self.N
        v_shape, p_shape = {"tall_value": ((N * R, D), (R, D)),
                            "tall_params": ((R, D), (N * R, D)),
                            "one_d": ((D,), (D,))}.get(case, ((R, D), (R, D)))
        x0 = g.gamma(1.5, 1.0, v_shape) + 1e-3
        a0, r0 = g.uniform(-2.0, 2.0, p_shape), g.uniform(-2.0, 2.0, p_shape)
        t = Tape()
        x_leaf, a_leaf, r_leaf = t.leaf(x0), t.leaf(a0), t.leaf(r0)
        # Live parameters and value through one op each, so adjoints pass
        # intermediates.
        conc, rate = t.softplus(a_leaf), t.softplus(r_leaf)
        value = t.mul(x_leaf, 1.3)
        leaves = [x_leaf, a_leaf, r_leaf]
        if case == "live_sample":
            # The toy's layout: a first block stacked on n blocks drawn from
            # the density itself, scored against its R parameter rows.
            draws = dists.sample_reparam(dists.gamma(conc, rate), RngStream(41), t, n=N - 1)
            value = with_first(value, draws, t)
        if fused:
            out = dists.log_prob(dists.gamma(conc, rate), value, t)
        else:
            v, a, r = value, conc, rate
            if case in ("tall_value", "live_sample"):
                v = t.reshape(value, (N, R, D))
            elif case == "tall_params":
                a, r = t.reshape(conc, (N, R, D)), t.reshape(rate, (N, R, D))
            out = unfused_gamma(t, v, a, r, reduce=case != "one_d")
        obj = t.sum(t.mul(out, g.standard_normal(t.val(out).shape)))
        if case == "conc_reused":
            obj = t.add(obj, t.sum(t.mul(conc, conc)))
        grads = t.backward(obj)
        return t.val(out), [grads[leaf] for leaf in leaves], t

    @pytest.mark.parametrize("case", CASES)
    def test_values_and_leaf_adjoints_are_bitwise_equal(self, case):
        got, got_grads, t = self._run(case, fused=True)
        want, want_grads, _ = self._run(case, fused=False)
        assert t._ops.count("gamma_log_prob") == 1
        assert "log" not in t._ops and "lgamma" not in t._ops
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        for a, b in zip(got_grads, want_grads):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_no_grad_forward_matches_grad_forward(self):
        g = np.random.default_rng(5)
        x, a, r = g.gamma(2.0, 1.0, (15, 4)) + 1e-3, g.uniform(0.1, 3, (3, 4)), g.uniform(0.1, 3, (3, 4))
        values = []
        for requires_grad in (True, False):
            t = Tape(requires_grad=requires_grad)
            values.append(t.val(dists.log_prob(dists.gamma(t.leaf(a), t.leaf(r)), x, t)))
        assert values[0].tobytes() == values[1].tobytes()

    @pytest.mark.parametrize("live", [False, True])
    @pytest.mark.parametrize("bad", ["rate", "concentration", "both"])
    def test_nonpositive_parameters_raise_the_chain_opcodes(self, live, bad):
        ok, neg = np.array([1.0, 2.0, 0.5]), np.array([1.0, 0.0, -2.0])
        conc = neg if bad in ("concentration", "both") else ok
        rate = neg if bad in ("rate", "both") else ok
        raised = []
        for fused in (True, False):
            t = Tape()
            make = t.leaf if live else t.const
            a, r, x = make(conc), make(rate), np.full(3, 0.7)
            with pytest.raises(DomainError) as err:
                if fused:
                    dists.log_prob(dists.gamma(a, r), x, t)
                else:
                    unfused_gamma(t, x, a, r, reduce=False)
            raised.append((err.value.opcode, err.value.offending_value))
        assert raised[0] == raised[1] == ("lgamma" if bad == "concentration" else "log", 0.0)


class TestEntryByEntry:
    """A 0-d or 1-d value is scored entry by entry, as the same entries in
    (n, 1) rows would be: the same bits in values and in every leaf adjoint."""

    N = 5

    def _run(self, kind, v_shape, p_shape, rows):
        family, n_params = BLOCK_FAMILIES[kind]
        g = np.random.default_rng(43)
        params = [g.uniform(0.3, 2.5, p_shape) for _ in range(n_params)]
        value = g.uniform(0.05, 0.95, v_shape)
        t = Tape()
        ps, v = [t.leaf(p) for p in params], t.leaf(value)
        used_ps, used_v = ps, v
        if rows:
            used_ps = [t.reshape(p, (-1, 1)) if p_shape else p for p in ps]
            used_v = t.reshape(v, (-1, 1))
        out = dists.log_prob(family(*used_ps), used_v, t)
        shape = np.broadcast_shapes(v_shape, p_shape)
        if rows:
            out = t.reshape(out, shape)
        grads = t.backward(t.sum(t.mul(out, g.standard_normal(shape))))
        return t.val(out), [grads[leaf] for leaf in ps + [v]]

    @pytest.mark.parametrize("kind", sorted(BLOCK_FAMILIES))
    @pytest.mark.parametrize("v_shape,p_shape", [((N,), (N,)), ((N,), ()), ((), (N,)), ((), ())])
    def test_entries_score_as_one_column_rows(self, kind, v_shape, p_shape):
        got, got_grads = self._run(kind, v_shape, p_shape, rows=False)
        want, want_grads = self._run(kind, v_shape, p_shape, rows=True)
        assert got.shape == want.shape == np.broadcast_shapes(v_shape, p_shape)
        assert got.tobytes() == want.tobytes()
        for a, b in zip(got_grads, want_grads):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSampling:
    def test_normal_location_scale_partials(self):
        t = Tape()
        mu, sigma = t.leaf(0.7), t.leaf(1.2)
        rng = RngStream(3)
        s = dists.sample_reparam(dists.normal(mu, sigma), rng, t)
        eps = (float(t.val(s)) - 0.7) / 1.2
        g = t.backward(s)
        assert float(g[NodeId(mu.index)]) == pytest.approx(1.0)
        assert float(g[NodeId(sigma.index)]) == pytest.approx(eps)

    def test_exponential_closed_form_pathwise(self):
        t = Tape()
        rate = t.leaf(2.0)
        s = dists.sample_reparam(dists.exponential(rate), RngStream(5), t)
        val = float(t.val(s))
        g = float(t.backward(s)[NodeId(rate.index)])
        assert g == pytest.approx(-val / 2.0, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 3])
    def test_gamma_draw_and_partials_match_a_twin_stream(self, n):
        g = np.random.default_rng(47)
        conc, rate = g.uniform(0.3, 3.0, (4, 2)), g.uniform(0.5, 2.0, (4, 2))
        t, rng, twin = Tape(), RngStream(53), RngStream(53)
        draws = dists.sample_reparam(dists.gamma(t.leaf(conc), t.leaf(rate)), rng, t, n=n)
        want = twin.gamma(conc, rate, shape=(n, 4, 2) if n > 1 else (4, 2))
        want_conc, want_rate = dists.gamma_implicit_grad(conc, rate, want)
        sample, d_conc, d_rate = t._aux[t._ops.index("gamma_sample")]
        assert sample.tobytes() == want.tobytes()
        assert d_conc.tobytes() == want_conc.tobytes() and d_rate.tobytes() == want_rate.tobytes()
        assert rng.uniforms_consumed == twin.uniforms_consumed
        assert t.val(draws).tobytes() == want.reshape(-1, 2).tobytes()

    def test_no_grad_gamma_draw_skips_the_implicit_gradient(self, monkeypatch):
        calls = []
        implicit_grad = dists.gamma_implicit_grad
        monkeypatch.setattr(dists, "gamma_implicit_grad",
                            lambda *args: calls.append(1) or implicit_grad(*args))
        dist = dists.gamma(np.full(3, 0.8), np.full(3, 1.5))
        dists.sample_reparam(dist, RngStream(59), Tape(requires_grad=False))
        assert calls == []
        dists.sample_reparam(dist, RngStream(59), Tape())
        assert calls == [1]

    def test_discrete_kinds_unsupported(self):
        with pytest.raises(UnsupportedKindError):
            dists.sample_reparam(dists.bernoulli(logits=0.0), RngStream(0), Tape())

    def test_moments_match_analytic(self):
        n = 10 ** 6
        rng = RngStream(17)
        t = Tape(requires_grad=False)
        cases = [
            (dists.normal(0.5, 1.5), 0.5, 2.25),
            (dists.exponential(0.5), 2.0, 4.0),
            (dists.gamma(2.0, 1.0), 2.0, 2.0),
        ]
        for dist, mean, var in cases:
            s = t.val(dists.sample_reparam(dist, rng, t, n=n))
            se_m = math.sqrt(var / n)
            assert abs(s.mean() - mean) < 4 * se_m
            kurt_bound = 12 * var / math.sqrt(n)   # loose 4-se scale for the variance
            assert abs(s.var() - var) < max(4 * kurt_bound, 0.02)


def pathwise_moment_grad(dist_builder, param0, f, n, seed):
    """d/dtheta E[f(sample)] by the tape, averaged over n draws."""
    t = Tape()
    p = t.leaf(param0)
    s = dists.sample_reparam(dist_builder(t, p), RngStream(seed), t, n=n)
    obj = t.mean(f(t, s))
    g = t.backward(obj)[NodeId(p.index)]
    per = None
    return float(g), per


class TestPathwiseMomentGradients:
    N = 200_000

    @pytest.mark.parametrize("builder,param0,d_mean,d_second", [
        (lambda t, p: dists.normal(p, 1.0), 0.4, 1.0, lambda m: 2 * m),       # E[x]=m, E[x^2]=m^2+1
        (lambda t, p: dists.normal(0.0, p), 1.3, 0.0, lambda s: 2 * s),       # E[x^2]=s^2
        (lambda t, p: dists.exponential(p), 1.5, -1 / 1.5 ** 2, lambda r: -4 / r ** 3),
        (lambda t, p: dists.gamma(p, 1.0), 2.0, 1.0, lambda a: 2 * a + 1),    # E[x^2]=a(a+1)
    ])
    def test_first_and_second_moments(self, builder, param0, d_mean, d_second):
        g1, _ = pathwise_moment_grad(builder, param0, lambda t, s: s, self.N, 11)
        g2, _ = pathwise_moment_grad(builder, param0, lambda t, s: t.mul(s, s), self.N, 12)
        tol1 = max(4 * 4.0 / math.sqrt(self.N), 5e-3)
        tol2 = max(4 * 40.0 / math.sqrt(self.N), 5e-2)
        assert g1 == pytest.approx(d_mean, abs=tol1)
        expected2 = d_second(param0)
        assert g2 == pytest.approx(expected2, abs=tol2)

    def test_gamma_mean_gradient_example(self):
        # E[sample] = concentration / rate; d/dconcentration = 1.
        g, _ = pathwise_moment_grad(lambda t, p: dists.gamma(p, 1.0), 2.0,
                                    lambda t, s: s, 100_000, 31)
        assert g == pytest.approx(1.0, abs=3 * 1.5 / math.sqrt(100_000) + 2e-3)


class TestGammaImplicitGrad:
    def test_rate_derivative_exact(self):
        dda, ddr = dists.gamma_implicit_grad(2.0, 3.0, 1.1)
        assert float(ddr) == pytest.approx(-1.1 / 3.0, rel=1e-14)

    def test_concentration_one_matches_quantile_fd(self):
        a, r, s = 1.0, 1.0, 0.9
        u = float(special.gammainc_p(a, r * s))
        h = 1e-5
        fd = float(oracle.gamma_ppf_unit(a + h, u) - oracle.gamma_ppf_unit(a - h, u)) / (2 * h)
        dda, _ = dists.gamma_implicit_grad(a, r, s)
        assert float(dda) == pytest.approx(fd, abs=1e-4)

    def test_at_gamma_3_2_median(self):
        a, r = 3.0, 2.0
        s = float(oracle.gamma_ppf_unit(a, 0.5)) / r
        u = 0.5
        h = 1e-5
        fd = float(oracle.gamma_ppf_unit(a + h, u) - oracle.gamma_ppf_unit(a - h, u)) / (2 * h) / r
        dda, ddr = dists.gamma_implicit_grad(a, r, s)
        assert float(dda) == pytest.approx(fd, rel=1e-3)
        assert float(ddr) == pytest.approx(-s / r, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            dists.gamma_implicit_grad(2.0, 1.0, -1.0)

    @pytest.mark.parametrize("a,r,s", [(math.nan, 1.0, 0.5), (2.0, math.inf, 0.5),
                                       (2.0, 1.0, math.nan), (math.inf, 1.0, 0.5)])
    def test_rejects_non_finite(self, a, r, s):
        with pytest.raises(ValueError, match="finite"):
            dists.gamma_implicit_grad(np.array([a, 1.0]), r, np.array([s, 0.5]))

    @staticmethod
    def _reference(a, x):
        """d(sample)/d(concentration) at rate 1 as -(dP/da) / pdf(x), where
        dP/da = int_0^x t^(a-1) e^-t log t dt / Gamma(a) - P psi(a), or minus the
        upper-tail counterpart for x > a + 1, by scipy quadrature.  The integrand
        is divided by pdf(x) up front so nothing under- or overflows."""
        lg = sps.gammaln(a)
        log_pdf = (a - 1.0) * math.log(x) - x - lg
        quad = dict(epsabs=0.0, epsrel=1e-13, limit=200)
        if x > a + 1.0:
            f = lambda t: math.exp((a - 1.0) * math.log(t) - t - lg - log_pdf) * math.log(t)
            tail, _ = integrate.quad(f, x, math.inf, **quad)
            return tail - sps.gammaincc(a, x) * math.exp(-log_pdf) * sps.digamma(a)
        if a < 1.0:
            # t^(a-1) log t as quad's algebraic-logarithmic weight at t = 0.
            w = lambda t: math.exp(-t - lg - log_pdf)
            head, _ = integrate.quad(w, 0.0, x, weight="alg-loga", wvar=(a - 1.0, 0.0), **quad)
        else:
            f = lambda t: math.exp((a - 1.0) * math.log(t) - t - lg - log_pdf) * math.log(t)
            head, _ = integrate.quad(f, 0.0, x, **quad)
        return -(head - sps.gammainc(a, x) * math.exp(-log_pdf) * sps.digamma(a))

    @pytest.mark.parametrize("a,x", [(a, x) for a in (0.05, 1.0, 200.0)
                                     for x in ((a + 1) / 2, a + 1 - 1e-9, a + 1 + 1e-9,
                                               1.5 * (a + 1))] + [(1.0, 30.0)])
    def test_matches_quadrature_reference(self, a, x):
        # Both sides of the series / continued-fraction switch at x = a + 1,
        # and a far-tail point where P(a, x) rounds to 1.
        r = 2.5
        dda, _ = dists.gamma_implicit_grad(a, r, x / r)
        assert float(dda) * r == pytest.approx(self._reference(a, x), rel=1e-10)

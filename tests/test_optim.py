import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longtail_lab import Optimizer, OptimizerSpec, global_grad_norm, jsonio, sam_step
from longtail_lab.optim import flatten, unflatten


def as_params(**kwargs):
    return {k: np.asarray(v, dtype=np.float64) for k, v in kwargs.items()}


def as_flat(**kwargs) -> np.ndarray:
    """The named parameters as one flat buffer, in order."""
    return flatten(as_params(**kwargs))


class TestSgd:
    def test_plain_step(self):
        opt = Optimizer(OptimizerSpec("sgd", lr=0.1, momentum=0.0))
        out = opt.step(as_flat(w=1.0), as_params(w=2.0))
        assert float(out[0]) == pytest.approx(0.8)

    def test_momentum_accumulates(self):
        opt = Optimizer(OptimizerSpec("sgd", lr=0.1, momentum=0.9))
        params = as_flat(w=0.0)
        params = opt.step(params, as_params(w=1.0))   # buf = 1 -> w = -0.1
        assert float(params[0]) == pytest.approx(-0.1)
        params = opt.step(params, as_params(w=1.0))   # buf = 1.9 -> w = -0.29
        assert float(params[0]) == pytest.approx(-0.29)

    def test_default_lr(self):
        assert OptimizerSpec("sgd").lr == 0.01
        assert OptimizerSpec("adam").lr == 3e-4


class TestAdam:
    def test_first_step_has_unit_direction(self):
        # bias correction makes the first update lr * g/(|g| + eps) ~ lr * sign(g)
        opt = Optimizer(OptimizerSpec("adam", lr=0.001))
        out = opt.step(as_flat(w=np.array([1.0, -1.0])),
                       as_params(w=np.array([10.0, -0.1])))
        np.testing.assert_allclose(out, [1.0 - 0.001, -1.0 + 0.001], rtol=1e-6)

    def test_hand_computed_second_step(self):
        spec = OptimizerSpec("adam", lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
        opt = Optimizer(spec)
        params = as_flat(w=0.0)
        g1, g2 = 1.0, 2.0
        params = opt.step(params, as_params(w=g1))
        m = 0.1 * g1
        v = 0.001 * g1 ** 2
        w = -0.01 * (m / (1 - 0.9)) / (np.sqrt(v / (1 - 0.999)) + 1e-8)
        assert float(params[0]) == pytest.approx(w, rel=1e-12)
        params = opt.step(params, as_params(w=g2))
        m = 0.9 * m + 0.1 * g2
        v = 0.999 * v + 0.001 * g2 ** 2
        w = w - 0.01 * (m / (1 - 0.9 ** 2)) / (np.sqrt(v / (1 - 0.999 ** 2)) + 1e-8)
        assert float(params[0]) == pytest.approx(w, rel=1e-12)


class TestSam:
    def test_quadratic_hand_example(self):
        # f(t) = t^2 at t=1: grad 2, perturbed t=1.1, grad 2.2, sgd lr 0.1 -> 0.78
        spec = OptimizerSpec("sgd", lr=0.1, momentum=0.0, sam=True, sam_rho=0.1)
        opt = Optimizer(spec)

        def grad_fn(params):
            t = params[0]
            return float(t ** 2), {"t": 2.0 * t}

        value, out = sam_step(opt, as_flat(t=1.0), grad_fn)
        assert value == pytest.approx(1.0)
        assert float(out[0]) == pytest.approx(0.78)

    def test_rho_zero_collapses_to_inner(self):
        calls = []

        def grad_fn(params):
            calls.append(1)
            return 0.0, {"t": np.asarray(2.0 * params[0])}

        inner_only = Optimizer(OptimizerSpec("sgd", lr=0.1, momentum=0.0))
        _, expected = sam_step(inner_only, as_flat(t=1.0), grad_fn)
        sam_zero = Optimizer(OptimizerSpec("sgd", lr=0.1, momentum=0.0, sam=True, sam_rho=0.0))
        _, got = sam_step(sam_zero, as_flat(t=1.0), grad_fn)
        assert np.array_equal(expected, got)
        assert len(calls) == 2  # one gradient evaluation per step

    def test_rho_positive_recomputes_gradient(self):
        calls = []

        def grad_fn(params):
            calls.append(float(params[0]))
            return 0.0, {"t": np.asarray(2.0 * params[0])}

        opt = Optimizer(OptimizerSpec("sgd", lr=0.1, momentum=0.0, sam=True, sam_rho=0.1))
        sam_step(opt, as_flat(t=1.0), grad_fn)
        assert calls == [1.0, pytest.approx(1.1)]


class TestValidation:
    def test_non_finite_gradient_rejected(self):
        opt = Optimizer(OptimizerSpec("sgd", lr=0.1))
        with pytest.raises(ValueError, match="non-finite gradient"):
            opt.step(as_flat(w=1.0), as_params(w=np.nan))

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            OptimizerSpec("rmsprop")
        with pytest.raises(ValueError):
            OptimizerSpec("sgd", lr=-1.0)
        with pytest.raises(ValueError):
            OptimizerSpec("sgd", sam_rho=-0.1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"beta1": 2.0}, "beta1 and beta2"), ({"beta1": -0.1}, "beta1 and beta2"),
        ({"beta2": 1.0}, "beta1 and beta2"), ({"beta2": float("nan")}, "beta1 and beta2"),
        ({"eps": -1.0}, "eps"), ({"eps": 0.0}, "eps"),
        ({"kind": "sgd", "momentum": -3.0}, "momentum"),
        ({"kind": "sgd", "momentum": float("nan")}, "momentum"),
    ])
    def test_setting_out_of_range_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            OptimizerSpec(**kwargs)

    def test_edge_settings_accepted(self):
        OptimizerSpec("adam", beta1=0.0, beta2=0.0, eps=1e-300)
        OptimizerSpec("sgd", momentum=0.0)

    def test_global_grad_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        assert global_grad_norm(grads) == pytest.approx(5.0)

    def test_config_round_trip(self):
        spec = OptimizerSpec("sgd", lr=0.05, sam=True, sam_rho=0.02)
        again = jsonio.parse_fields(OptimizerSpec, jsonio.fields_to_config(spec), "optimizer")
        assert again.kind == "sgd" and again.lr == 0.05
        assert again.sam and again.sam_rho == 0.02
        with pytest.raises(ValueError, match="unknown optimizer"):
            jsonio.parse_fields(OptimizerSpec, {"kind": "sgd", "nesterov": True}, "optimizer")


def reference_steps(spec, params, grad_steps):
    """The per-array update loop: one state entry per parameter name."""
    state, t = {}, 0
    for grads in grad_steps:
        updated = {}
        if spec.kind == "adam":
            t += 1
        for name, p in params.items():
            g = grads[name]
            if spec.kind == "sgd":
                buf = state.get(name, np.zeros_like(p))
                state[name] = buf = spec.momentum * buf + g
                updated[name] = p - spec.lr * buf
            else:
                m, v = state.get(name, (np.zeros_like(p), np.zeros_like(p)))
                m = spec.beta1 * m + (1.0 - spec.beta1) * g
                v = spec.beta2 * v + (1.0 - spec.beta2) * g * g
                state[name] = m, v
                m_hat = m / (1.0 - spec.beta1 ** t)
                v_hat = v / (1.0 - spec.beta2 ** t)
                updated[name] = p - spec.lr * m_hat / (np.sqrt(v_hat) + spec.eps)
        params = updated
    return params


SPECS = [OptimizerSpec("sgd", lr=0.1, momentum=0.0), OptimizerSpec("sgd", lr=0.03, momentum=0.9),
         OptimizerSpec("adam", lr=0.01), OptimizerSpec("adam", lr=1e-3, beta1=0.5, eps=1e-3)]
shapes = st.lists(st.one_of(st.just(()), st.tuples(st.integers(1, 5)),
                            st.tuples(st.integers(1, 4), st.integers(1, 4))),
                  min_size=1, max_size=6)


def random_layout(shape_list, rng):
    """Named arrays of the given shapes; the first 0-d block is the temperature."""
    names = ["temperature" if shape == () and () not in shape_list[:i] else f"p{i}"
             for i, shape in enumerate(shape_list)]
    scale = 10.0 ** rng.integers(-6, 4)
    return {name: scale * rng.standard_normal(shape) for name, shape in zip(names, shape_list)}


def bits(arrays: dict) -> dict:
    return {name: np.asarray(a).tobytes() for name, a in arrays.items()}


class TestFlatUpdate:
    @settings(max_examples=150, deadline=None)
    @given(shapes, st.sampled_from(SPECS), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
    def test_bitwise_equal_to_per_array_loop(self, shape_list, spec, n_steps, seed):
        rng = np.random.default_rng(seed)
        params = random_layout(shape_list, rng)
        grad_steps = [{k: v + rng.standard_normal(np.shape(v)) for k, v in params.items()}
                      for _ in range(n_steps)]
        expected = bits(reference_steps(spec, params, grad_steps))

        flat = flatten(params)
        opt = Optimizer(spec)
        for grads in grad_steps:
            assert opt.step(flat, grads) is flat  # the buffer moves in place
        assert bits(unflatten(flat, params)) == expected

    @settings(max_examples=100, deadline=None)
    @given(shapes, st.sampled_from(SPECS), st.sampled_from([0.05, 2.0]),
           st.integers(0, 2 ** 32 - 1))
    def test_sam_flat_matches_dict(self, shape_list, spec, rho, seed):
        """SAM on the flat buffer gives the bits of SAM computed array by array."""
        rng = np.random.default_rng(seed)
        params = random_layout(shape_list, rng)
        spec = OptimizerSpec(spec.kind, lr=spec.lr, momentum=spec.momentum, sam=True,
                             sam_rho=rho)

        def grads_at(arrays):
            return {k: np.sin(v) + 0.5 * v for k, v in arrays.items()}

        grads = grads_at(params)
        scale = rho / (global_grad_norm(grads) + 1e-12)
        shifted = {k: p + scale * grads[k] for k, p in params.items()}
        expected = reference_steps(spec, params, [grads_at(shifted)])
        flat_points = []

        def flat_grad_fn(p):
            flat_points.append(p)
            return 0.0, grads_at(unflatten(p, params))

        flat = flatten(params)
        _, got = sam_step(Optimizer(spec), flat, flat_grad_fn)
        assert got is flat
        # the flat shifted point is a new buffer, equal bit for bit to the per-array one
        assert flat_points[1] is not flat
        assert flatten(shifted).tobytes() == flat_points[1].tobytes()
        assert bits(unflatten(flat, params)) == bits(expected)
        assert global_grad_norm(grads_at(params)) == global_grad_norm(
            grads_at(unflatten(flatten(params), params)))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), st.sampled_from(SPECS), st.integers(1, 6),
           st.integers(0, 2 ** 32 - 1))
    def test_scratch_buffers_bitwise_equal_temporaries(self, size, spec, n_steps, seed):
        rng = np.random.default_rng(seed)
        flat = 10.0 ** rng.integers(-6, 4) * rng.standard_normal(size)
        expected, moments, t = flat.copy(), [np.zeros(size), np.zeros(size)], 0
        opt = Optimizer(spec)
        for _ in range(n_steps):
            g = 10.0 ** rng.integers(-8, 4) * rng.standard_normal(size)
            # the flat update as written with a temporary per ufunc
            if spec.kind == "sgd":
                moments[0] = spec.momentum * moments[0] + g
                expected -= spec.lr * moments[0]
            else:
                t += 1
                m, v = moments
                m *= spec.beta1
                m += (1.0 - spec.beta1) * g
                v *= spec.beta2
                v += (1.0 - spec.beta2) * g * g
                update = m / (1.0 - spec.beta1 ** t)
                update *= spec.lr
                denom = np.sqrt(v / (1.0 - spec.beta2 ** t)) + spec.eps
                expected -= update / denom
            opt.step(flat, {"p": g})
            assert flat.view(np.uint64).tobytes() == expected.view(np.uint64).tobytes()
        scratch = [id(a) for a in opt._scratch]
        opt.step(flat, {"p": g})
        assert [id(a) for a in opt._scratch] == scratch  # allocated once, with the moments

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow the step then refuses
    @pytest.mark.parametrize("spec, first, second, message", [
        (OptimizerSpec("adam"), 1.0, 1e200, "Adam second moment overflows for 'b'"),
        (OptimizerSpec("sgd", momentum=0.9), 1e308, 1e308, "SGD momentum overflows for 'b'"),
        (OptimizerSpec("sgd", momentum=0.9), 1.0, np.nan, "non-finite gradient for 'b'"),
    ], ids=["adam-square", "sgd-momentum", "sgd-nan"])
    def test_moment_that_is_not_finite_names_its_block(self, spec, first, second, message):
        # the first step, with 'b' at ``first``, keeps every moment finite; the second, with
        # one element of 'b' at ``second``, does not
        params = as_params(a=np.zeros(3), b=np.zeros((2, 2)), temperature=1.0)
        grads = {k: np.ones_like(v) for k, v in params.items()}
        grads["b"][:] = first
        opt = Optimizer(spec)
        flat = flatten(params)
        opt.step(flat, grads)
        before = flat.copy()
        grads["b"][:] = 1.0
        grads["b"][1, 0] = second
        with pytest.raises(ValueError, match=message):
            opt.step(flat, grads)
        assert flat.tobytes() == before.tobytes()  # nothing moved

    def test_non_finite_gradient_names_its_block(self):
        params = as_params(a=np.zeros(3), b=np.zeros((2, 2)), temperature=1.0)
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        grads["b"][1, 0] = np.inf
        flat = flatten(params)
        with pytest.raises(ValueError, match="non-finite gradient for 'b'"):
            Optimizer(OptimizerSpec("adam")).step(flat, grads)
        assert flat.tobytes() == flatten(params).tobytes()  # nothing moved

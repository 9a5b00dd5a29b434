"""Unit tests for the dense network engine."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sasvkit.neuralcore import (
    _STEP_BLOCK,
    _elu_backward,
    _elu_inplace,
    Elu,
    FullyConnected,
    MlpParams,
    MlpSpec,
    NonFiniteError,
    OptimizerState,
    TrainConfig,
    cce_loss,
    grad_check,
    mlp_backward,
    mlp_forward,
    optimizer_step,
    softmax,
)
from sasvkit.models import Mlp

finite_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def elu(values) -> np.ndarray:
    """ELU of each value, run as a batch through a unit linear layer plus ELU."""
    spec = MlpSpec((FullyConnected(1, 1), Elu()))
    params = MlpParams(weights=[np.array([[1.0]])], biases=[np.array([0.0])])
    out = mlp_forward(spec, params, np.asarray(values, dtype=np.float64)[:, None])
    return out[:, 0]


def dense(weight, bias, x) -> np.ndarray:
    """One fully-connected layer through mlp_forward."""
    spec = MlpSpec((FullyConnected(weight.shape[1], weight.shape[0]),))
    out = mlp_forward(spec, MlpParams(weights=[weight], biases=[bias]), x)
    return out


class TestElu:
    def test_zero_and_positive_pass_through(self):
        np.testing.assert_array_equal(elu([0.0, 1.5]), [0.0, 1.5])

    def test_negative_uses_expm1(self):
        np.testing.assert_allclose(elu([-1.0]), [math.expm1(-1.0)], rtol=0, atol=0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            elu([1.0, np.nan])
        with pytest.raises(ValueError):
            elu([np.inf])

    def test_elu_after_elu_keeps_the_first_output_on_the_tape(self):
        spec = MlpSpec((FullyConnected(1, 1), Elu(), Elu()))
        params = MlpParams(weights=[np.array([[1.0]])], biases=[np.array([0.0])])
        tape = []
        out = mlp_forward(spec, params, np.array([[-1.0]]), tape)
        assert tape[1][1][0, 0] == math.expm1(-1.0)
        assert out[0, 0] == math.expm1(math.expm1(-1.0))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_in_place_form_matches_the_where_form(self, dtype):
        rng = np.random.default_rng(4)
        values = (rng.standard_normal(4000) * 10.0 ** rng.integers(-40, 2, 4000)).astype(dtype)
        values[:3] = [0.0, np.finfo(dtype).tiny, -np.finfo(dtype).tiny]
        reference = np.where(values > 0, values, np.expm1(values))
        got = values.copy()
        _elu_inplace(got)
        assert got.tobytes() == reference.tobytes()
        negative_zero = np.array([-0.0], dtype=dtype)
        _elu_inplace(negative_zero)
        assert negative_zero[0] == 0.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_backward_matches_the_three_temporary_form(self, dtype):
        rng = np.random.default_rng(5)
        out = elu(rng.standard_normal(4000) * 4).astype(dtype).reshape(40, 100)
        out[0, :3] = 0.0
        grad = rng.standard_normal((40, 100)).astype(dtype)
        reference = grad * np.where(out > 0, 1.0, out + 1.0)
        got = _elu_backward(grad, out)
        assert got.dtype == dtype
        assert got.tobytes() == reference.tobytes()

    @given(st.lists(finite_floats, min_size=1, max_size=20))
    def test_monotone_and_bounded_below(self, values):
        out = elu(values)
        assert np.all(out >= -1.0)
        order = np.argsort(values)
        assert np.all(np.diff(out[order]) >= 0)


class TestDenseForward:
    def test_identity(self):
        w = np.eye(3)
        b = np.zeros(3)
        x = np.array([[1.0, -2.0, 3.0]])
        np.testing.assert_array_equal(dense(w, b, x), x)

    def test_affine(self):
        w = np.array([[1.0, 1.0]])
        b = np.array([0.5])
        np.testing.assert_array_equal(dense(w, b, np.array([[1.0, 2.0]])), [[3.5]])

    def test_batch(self):
        w = np.array([[2.0, 0.0], [0.0, 1.0]])
        b = np.array([1.0, 0.0])
        x = np.array([[1.0, 1.0], [0.0, 3.0]])
        np.testing.assert_array_equal(dense(w, b, x), [[3.0, 1.0], [1.0, 3.0]])

    def test_dimension_mismatch(self):
        # a row of the wrong width, and a single vector where a batch is expected
        for x in (np.zeros((1, 4)), np.zeros(3)):
            with pytest.raises(ValueError):
                dense(np.zeros((2, 3)), np.zeros(2), x)


class TestSpecValidation:
    def test_chained_dims_accepted(self):
        spec = MlpSpec((FullyConnected(4, 8), Elu(), FullyConnected(8, 2)))
        assert spec.input_dim == 4
        assert spec.output_dim == 2

    def test_broken_chain_rejected(self):
        with pytest.raises(ValueError, match="layer 2"):
            MlpSpec((FullyConnected(4, 8), Elu(), FullyConnected(9, 2)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MlpSpec(())

    def test_leading_activation_rejected(self):
        with pytest.raises(ValueError):
            MlpSpec((Elu(), FullyConnected(3, 3)))

    def test_params_shape_checked(self):
        spec = MlpSpec((FullyConnected(4, 2),))
        params = MlpParams.zeros(spec)
        params.weights[0] = np.zeros((2, 5))
        with pytest.raises(ValueError):
            Mlp(spec, params)


class TestMlpForward:
    def test_single_linear_layer(self):
        spec = MlpSpec((FullyConnected(2, 2),))
        params = MlpParams(
            weights=[np.array([[1.0, 0.0], [1.0, 1.0]])], biases=[np.array([0.0, -1.0])]
        )
        out = mlp_forward(spec, params, np.array([[2.0, 3.0]]))
        np.testing.assert_array_equal(out, [[2.0, 4.0]])

    def test_elu_applied_between_layers(self):
        spec = MlpSpec((FullyConnected(1, 1), Elu(), FullyConnected(1, 1)))
        params = MlpParams(
            weights=[np.array([[1.0]]), np.array([[2.0]])],
            biases=[np.array([0.0]), np.array([0.0])],
        )
        out = mlp_forward(spec, params, np.array([[-1.0]]))
        np.testing.assert_allclose(out, [[2.0 * math.expm1(-1.0)]])

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(7)
        spec = MlpSpec(
            (FullyConnected(5, 7), Elu(), FullyConnected(7, 4), Elu(), FullyConnected(4, 3))
        )
        params = MlpParams.init(spec, rng)
        xs = rng.standard_normal((6, 5))
        batch_out = mlp_forward(spec, params, xs)
        for i in range(6):
            single_out = mlp_forward(spec, params, xs[i : i + 1])
            # BLAS may take another kernel for one row, differing in the last ulp
            np.testing.assert_allclose(batch_out[i], single_out[0], atol=1e-12)

    def test_runs_in_the_parameters_dtype(self):
        rng = np.random.default_rng(9)
        spec = MlpSpec((FullyConnected(5, 7), Elu(), FullyConnected(7, 3)))
        wide = MlpParams.init(spec, rng)
        narrow = MlpParams(list(wide.weights), list(wide.biases))
        narrow.cast(np.float32)
        x = rng.standard_normal((6, 5))
        dout = rng.standard_normal((6, 3))
        tape64 = []
        out64 = mlp_forward(spec, wide, x, tape64)
        tape32 = []
        out32 = mlp_forward(spec, narrow, x, tape32)
        grads32, dx32 = mlp_backward(spec, narrow, tape32, dout)
        grads64, dx64 = mlp_backward(spec, wide, tape64, dout)
        assert wide.weights[0].dtype == np.float64
        for arr in [out32, dx32] + [v for _, v in tape32] + grads32.tensors():
            assert arr.dtype == np.float32
        for a, b in zip([out32, dx32] + grads32.tensors(), [out64, dx64] + grads64.tensors()):
            np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_tapeless_output_is_the_taped_output(self, dtype):
        rng = np.random.default_rng(19)
        spec = MlpSpec((FullyConnected(5, 7), Elu(), Elu(), FullyConnected(7, 4), Elu(),
                        FullyConnected(4, 2)))
        params = MlpParams.init(spec, rng)
        params.cast(dtype)
        x = rng.standard_normal((9, 5)).astype(dtype)
        before = x.copy()
        tape = []
        taped = mlp_forward(spec, params, x, tape)
        bare = mlp_forward(spec, params, x)
        assert [kind for kind, _ in tape] == ["fc", "elu", "elu", "fc", "elu", "fc"]
        assert bare.dtype == dtype and np.array_equal(bare, taped)
        assert np.array_equal(x, before)

    def test_wrong_input_dim_names_layer(self):
        spec = MlpSpec((FullyConnected(4, 2),))
        params = MlpParams.zeros(spec)
        with pytest.raises(ValueError, match="layer 0"):
            mlp_forward(spec, params, np.zeros((1, 3)))


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5], atol=1e-15)

    def test_known_ratio(self):
        out = softmax(np.array([math.log(2.0), 0.0]))
        np.testing.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([]))

    @given(st.lists(finite_floats, min_size=1, max_size=12))
    def test_simplex(self, logits):
        p = softmax(np.array(logits))
        assert np.all(p > 0)
        assert abs(p.sum() - 1.0) <= 1e-12

    @given(st.lists(finite_floats, min_size=1, max_size=12), finite_floats)
    def test_shift_invariance(self, logits, shift):
        arr = np.array(logits)
        np.testing.assert_allclose(softmax(arr), softmax(arr + shift), atol=1e-12)


class TestCceLoss:
    def test_uniform_two_way_is_log_two(self):
        assert abs(cce_loss([0.0, 0.0], [0.0, 1.0]) - math.log(2.0)) <= 1e-12

    def test_uniform_three_way_is_log_three(self):
        assert abs(cce_loss([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]) - math.log(3.0)) <= 1e-12

    def test_confident_correct_is_near_zero(self):
        assert cce_loss([1000.0, 0.0], [1.0, 0.0]) <= 1e-12

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            logits = rng.standard_normal(4)
            target = np.zeros(4)
            target[rng.integers(4)] = 1.0
            direct = -float(target @ np.log(softmax(logits)))
            assert abs(cce_loss(logits, target) - direct) <= 1e-12

    def test_rejects_non_one_hot(self):
        with pytest.raises(ValueError):
            cce_loss([0.0, 0.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            cce_loss([0.0, 0.0], [1.0, 1.0])

    @given(st.lists(finite_floats, min_size=2, max_size=8), st.data())
    def test_non_negative(self, logits, data):
        target = np.zeros(len(logits))
        target[data.draw(st.integers(0, len(logits) - 1))] = 1.0
        assert cce_loss(np.array(logits), target) >= 0.0


def _numeric_gradient(loss_fn, tensors, eps=1e-6):
    """Plain finite-difference loop, kept independent of grad_check."""
    grads = []
    for t in tensors:
        g = np.zeros_like(t)
        flat = t.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = loss_fn()
            flat[i] = orig - eps
            lo = loss_fn()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


class TestBackward:
    def test_single_layer_known_gradient(self):
        # loss = y[0] for y = Wx + b, so dW row 0 is x and db is [1, 0]
        spec = MlpSpec((FullyConnected(3, 2),))
        params = MlpParams.zeros(spec)
        x = np.array([[1.0, 2.0, 3.0]])
        tape = []
        mlp_forward(spec, params, x, tape)
        grads, dx = mlp_backward(spec, params, tape, np.array([[1.0, 0.0]]))
        np.testing.assert_array_equal(grads.weights[0], [[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(grads.biases[0], [1.0, 0.0])
        np.testing.assert_array_equal(dx, np.zeros((1, 3)))

    def test_matches_numeric_gradient_small_net(self):
        rng = np.random.default_rng(11)
        spec = MlpSpec(
            (FullyConnected(4, 6), Elu(), FullyConnected(6, 5), Elu(), FullyConnected(5, 3))
        )
        params = MlpParams.init(spec, rng)
        x = rng.standard_normal((1, 4))
        target = np.array([0.0, 1.0, 0.0])

        def loss_fn():
            out = mlp_forward(spec, params, x)
            return cce_loss(out[0], target)

        tape = []
        out = mlp_forward(spec, params, x, tape)
        dlogits = softmax(out) - target
        analytic, _ = mlp_backward(spec, params, tape, dlogits)
        numeric = _numeric_gradient(loss_fn, params.tensors())
        for a, n in zip(analytic.tensors(), numeric):
            np.testing.assert_allclose(a, n, atol=1e-7)

    def test_batch_gradient_is_sum_of_per_sample(self):
        rng = np.random.default_rng(13)
        spec = MlpSpec((FullyConnected(3, 4), Elu(), FullyConnected(4, 2)))
        params = MlpParams.init(spec, rng)
        xs = rng.standard_normal((5, 3))
        douts = rng.standard_normal((5, 2))
        tape = []
        mlp_forward(spec, params, xs, tape)
        batch_grads, _ = mlp_backward(spec, params, tape, douts)
        summed = [np.zeros_like(t) for t in params.tensors()]
        for i in range(5):
            tape_i = []
            mlp_forward(spec, params, xs[i : i + 1], tape_i)
            g, _ = mlp_backward(spec, params, tape_i, douts[i : i + 1])
            for acc, t in zip(summed, g.tensors()):
                acc += t
        for a, b in zip(batch_grads.tensors(), summed):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_input_gradient(self):
        rng = np.random.default_rng(17)
        spec = MlpSpec((FullyConnected(3, 3), Elu(), FullyConnected(3, 1)))
        params = MlpParams.init(spec, rng)
        x = rng.standard_normal((1, 3))

        def loss_fn():
            out = mlp_forward(spec, params, x)
            return float(out[0, 0])

        tape = []
        mlp_forward(spec, params, x, tape)
        _, dx = mlp_backward(spec, params, tape, np.array([[1.0]]))
        numeric = _numeric_gradient(loss_fn, [x])[0]
        np.testing.assert_allclose(dx, numeric, atol=1e-8)


def _reference_step(params, grads, config, state) -> None:
    """The unblocked SGD/Adam step: one whole-tensor expression per update.

    ``state`` is a dict with ``step`` and the moment lists ``m`` and ``v``.
    """
    lr = config.learning_rate
    state["step"] += 1
    if config.optimizer == "sgd":
        for p, g in zip(params, grads):
            p -= lr * g
        return
    if not state["m"]:
        state["m"] = [np.zeros_like(p) for p in params]
        state["v"] = [np.zeros_like(p) for p in params]
    t = state["step"]
    b1, b2 = config.beta1, config.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + config.epsilon)


# the big tensor spans two full blocks and a short one; it comes last so the
# non-finite test can hide its nan in the last block of the last tensor
STEP_SHAPES = [(3, 5), (1,), (0,), (2 * _STEP_BLOCK + 7,)]


def mixed_gradients(rng) -> list:
    """Gradients whose entries span magnitudes from 1e-9 to 1e3, some exactly 0."""
    grads = []
    for shape in STEP_SHAPES:
        g = rng.standard_normal(shape) * 10.0 ** rng.integers(-9, 4, size=shape)
        g[rng.random(shape) < 0.05] = 0.0
        grads.append(g)
    return grads


class TestOptimizerStep:
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_matches_reference_bit_for_bit(self, optimizer):
        self.check_against_reference(optimizer, np.float64)

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_float32_matches_reference_bit_for_bit(self, optimizer):
        self.check_against_reference(optimizer, np.float32)

    @staticmethod
    def check_against_reference(optimizer, dtype):
        config = TrainConfig(learning_rate=3e-3, optimizer=optimizer)
        rng = np.random.default_rng(11)
        params = [rng.standard_normal(shape).astype(dtype) for shape in STEP_SHAPES]
        expected = [p.copy() for p in params]
        reference = {"step": 0, "m": [], "v": []}
        state = None
        for _ in range(20):
            grads = [g.astype(dtype) for g in mixed_gradients(rng)]
            state = optimizer_step(params, grads, config, state)
            _reference_step(expected, grads, config, reference)
        assert state.step == reference["step"] == 20
        moments = state.first_moments + state.second_moments
        assert len(moments) == len(reference["m"] + reference["v"])
        for got, want in zip(params + moments, expected + reference["m"] + reference["v"]):
            assert got.tobytes() == want.tobytes()
        # the moments and the scratch vectors take the parameters' dtype
        assert all(t.dtype == dtype for t in params + moments + list(state.scratch))

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_overflowing_step_warns_nothing(self, optimizer):
        config = TrainConfig(learning_rate=1e308, optimizer=optimizer)
        params = [np.ones(3, dtype=np.float32)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            optimizer_step(params, [np.array([1.0, -1.0, 0.0], dtype=np.float32)], config)
        assert not np.isfinite(params[0][:2]).any()

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_non_finite_gradient_changes_nothing(self, optimizer):
        config = TrainConfig(optimizer=optimizer)
        rng = np.random.default_rng(12)
        params = [rng.standard_normal(shape) for shape in STEP_SHAPES]
        state = None
        for _ in range(3):
            state = optimizer_step(params, mixed_gradients(rng), config, state)
        before = [t.copy() for t in params + state.first_moments + state.second_moments]
        grads = mixed_gradients(rng)
        grads[-1][-1] = np.nan
        with pytest.raises(NonFiniteError):
            optimizer_step(params, grads, config, state)
        assert state.step == 3
        after = params + state.first_moments + state.second_moments
        assert len(after) == len(before)
        for got, want in zip(after, before):
            assert got.tobytes() == want.tobytes()

    def test_non_contiguous_parameter_rejected(self):
        config = TrainConfig()
        params = [np.zeros(4), np.zeros((3, 2)).T]
        grads = [np.ones(4), np.ones((2, 3))]
        with pytest.raises(ValueError, match="parameter tensor 1 is not C-contiguous"):
            optimizer_step(params, grads, config)
        np.testing.assert_array_equal(params[0], 0.0)

    def test_sgd_rule(self):
        config = TrainConfig(learning_rate=0.1, optimizer="sgd")
        p = np.array([1.0, -2.0])
        optimizer_step([p], [np.array([0.5, 0.5])], config)
        np.testing.assert_allclose(p, [0.95, -2.05])

    def test_zero_gradient_is_identity(self):
        for opt in ("sgd", "adam"):
            config = TrainConfig(optimizer=opt)
            p = np.array([3.0, 4.0])
            optimizer_step([p], [np.zeros(2)], config)
            np.testing.assert_array_equal(p, [3.0, 4.0])

    def test_adam_first_step_magnitude(self):
        config = TrainConfig(learning_rate=1e-3, optimizer="adam")
        p = np.array([1.0, 1.0, 1.0])
        g = np.array([10.0, -0.01, 1e-4])
        optimizer_step([p], [g], config)
        # first Adam step moves each coordinate by about lr against the sign
        step = p - 1.0
        assert np.all(np.sign(step) == -np.sign(g))
        np.testing.assert_allclose(np.abs(step), config.learning_rate, rtol=1e-3)

    def test_adam_state_carries_over(self):
        config = TrainConfig(optimizer="adam")
        p = np.array([0.0])
        state = optimizer_step([p], [np.array([1.0])], config)
        state = optimizer_step([p], [np.array([1.0])], config, state)
        assert state.step == 2

    def test_non_finite_gradient_rejected(self):
        config = TrainConfig()
        with pytest.raises(ValueError):
            optimizer_step([np.zeros(2)], [np.array([1.0, np.nan])], config)

    def test_shape_mismatch_rejected(self):
        config = TrainConfig()
        with pytest.raises(ValueError):
            optimizer_step([np.zeros(2)], [np.zeros(3)], config)

    def test_sgd_descends_quadratic(self):
        config = TrainConfig(learning_rate=0.2, optimizer="sgd")
        p = np.array([5.0])
        state = None
        for _ in range(40):
            state = optimizer_step([p], [2.0 * p], config, state)
        assert abs(p[0]) < 1e-3


class TestGradCheck:
    def test_quadratic_loss_is_exact(self):
        spec = MlpSpec((FullyConnected(3, 3),))
        params = MlpParams(weights=[np.eye(3)], biases=[np.zeros(3)])
        x = np.array([[1.0, 2.0, -1.0]])
        target = np.array([0.5, -0.5, 2.0])

        def loss_fn():
            out = mlp_forward(spec, params, x)
            return float(((out - target) ** 2).sum())

        tape = []
        out = mlp_forward(spec, params, x, tape)
        analytic, _ = mlp_backward(spec, params, tape, 2.0 * (out - target))
        err = grad_check(params.tensors(), loss_fn, analytic.tensors())
        assert err < 1e-8

    def test_elu_network_with_cce_head(self):
        rng = np.random.default_rng(23)
        spec = MlpSpec(
            (FullyConnected(16, 12), Elu(), FullyConnected(12, 8), Elu(), FullyConnected(8, 4))
        )
        params = MlpParams.init(spec, rng)
        x = rng.standard_normal((1, 16))
        target = np.array([0.0, 0.0, 1.0, 0.0])

        def loss_fn():
            out = mlp_forward(spec, params, x)
            return cce_loss(out[0], target)

        tape = []
        out = mlp_forward(spec, params, x, tape)
        analytic, _ = mlp_backward(spec, params, tape, softmax(out) - target)
        err = grad_check(params.tensors(), loss_fn, analytic.tensors(), epsilon=1e-5)
        assert err < 1e-4

    def test_corrupted_gradient_is_flagged(self):
        rng = np.random.default_rng(29)
        spec = MlpSpec((FullyConnected(6, 4), Elu(), FullyConnected(4, 2)))
        params = MlpParams.init(spec, rng)
        x = rng.standard_normal((1, 6))
        target = np.array([1.0, 0.0])

        def loss_fn():
            out = mlp_forward(spec, params, x)
            return cce_loss(out[0], target)

        tape = []
        out = mlp_forward(spec, params, x, tape)
        analytic, _ = mlp_backward(spec, params, tape, softmax(out) - target)
        tensors = analytic.tensors()
        tensors[0] = tensors[0] * 1.5  # wrong by half its own size
        err = grad_check(params.tensors(), loss_fn, tensors, epsilon=1e-5)
        assert err > 1e-2

    def test_sampled_entries_cover_large_tensors(self):
        rng = np.random.default_rng(31)
        spec = MlpSpec((FullyConnected(40, 30), Elu(), FullyConnected(30, 2)))
        params = MlpParams.init(spec, rng)
        x = rng.standard_normal((1, 40))
        target = np.array([0.0, 1.0])

        def loss_fn():
            out = mlp_forward(spec, params, x)
            return cce_loss(out[0], target)

        tape = []
        out = mlp_forward(spec, params, x, tape)
        analytic, _ = mlp_backward(spec, params, tape, softmax(out) - target)
        err = grad_check(
            params.tensors(),
            loss_fn,
            analytic.tensors(),
            epsilon=1e-5,
            max_entries_per_tensor=50,
            rng=np.random.default_rng(0),
        )
        assert err < 1e-4

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ValueError):
            grad_check([np.zeros(1)], lambda: 0.0, [np.zeros(1)], epsilon=0.0)


class TestTrainConfig:
    def test_defaults_valid(self):
        config = TrainConfig()
        assert config.optimizer == "adam"
        assert config.samples_per_epoch == 2000
        assert config.margin == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"epochs": 0},
            {"batch_size": 0},
            {"optimizer": "adagrad"},
            {"beta1": 1.0},
            {"epsilon": 0.0},
            {"learning_rate": math.nan},
            {"learning_rate": math.inf},
            {"epsilon": math.nan},
            {"epsilon": math.inf},
            {"seed": -1},
            {"margin": -0.1},
            {"margin": 2.5},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestInit:
    def test_glorot_bounds_and_zero_biases(self):
        rng = np.random.default_rng(37)
        spec = MlpSpec((FullyConnected(100, 50), Elu(), FullyConnected(50, 10)))
        params = MlpParams.init(spec, rng)
        limit0 = math.sqrt(6.0 / 150.0)
        assert np.abs(params.weights[0]).max() <= limit0
        assert np.all(params.biases[0] == 0.0)
        assert np.all(params.biases[1] == 0.0)

    def test_same_seed_same_weights(self):
        spec = MlpSpec((FullyConnected(8, 4),))
        a = MlpParams.init(spec, np.random.default_rng(5))
        b = MlpParams.init(spec, np.random.default_rng(5))
        np.testing.assert_array_equal(a.weights[0], b.weights[0])

import numpy as np
import pytest

from capgen import optim
from capgen.errors import ContractError, ShapeError
from capgen.optim import (
    adadelta_update, adam_lr, adam_update, clip_gradients, opt_state_arrays,
    opt_state_from_arrays, zero_grads,
)
from capgen.tensor import Tensor


def param(data):
    p = Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)
    return p


class TestAdadelta:
    def test_zero_gradient_zero_update(self):
        p = param([1.0, -2.0])
        p.grad = np.zeros(2)
        state = {}
        adadelta_update({"p": p}, state)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_closed_form(self):
        rho, eps = 0.95, 1e-6
        p = param([0.0])
        p.grad = np.ones(1)
        adadelta_update({"p": p}, {}, rho, eps)
        expected = -np.sqrt(eps) / np.sqrt((1 - rho) * 1.0 + eps) * 1.0
        np.testing.assert_allclose(p.data, [expected], rtol=1e-12)

    def test_update_opposes_gradient(self, rng):
        p = param(rng.standard_normal(8))
        g = rng.standard_normal(8)
        p.grad = g.copy()
        before = p.data.copy()
        adadelta_update({"p": p}, {})
        moved = p.data - before
        assert np.all(np.sign(moved[g != 0]) == -np.sign(g[g != 0]))

    def test_shape_mismatch(self):
        p = param([1.0, 2.0])
        p.grad = np.zeros(3)
        with pytest.raises(ShapeError):
            adadelta_update({"p": p}, {})


class TestAdam:
    def test_schedule(self):
        assert adam_lr(5e-4, 0) == pytest.approx(5e-4)
        assert adam_lr(5e-4, 14) == pytest.approx(5e-4)
        assert adam_lr(5e-4, 15) == pytest.approx(4e-4)
        assert adam_lr(5e-4, 30) == pytest.approx(3.2e-4)

    def test_zero_gradient_after_warm_state_decays(self):
        p = param([1.0])
        state = {}
        p.grad = np.ones(1)
        adam_update({"p": p}, state, lr=0.1)
        first_move = abs(1.0 - p.data[0])
        moves = []
        for _ in range(40):
            before = p.data[0]
            p.grad = np.zeros(1)
            adam_update({"p": p}, state, lr=0.1)
            moves.append(abs(p.data[0] - before))
        assert moves[-1] < first_move * 1e-2
        assert moves[-1] < moves[0]

    def test_quadratic_converges(self):
        p = param([3.0])
        state = {}
        for _ in range(2000):
            p.grad = 2.0 * (p.data - 0.5)
            adam_update({"p": p}, state, lr=0.01)
        assert abs(p.data[0] - 0.5) < 1e-6


def reference_adadelta(params, state, rho=0.95, eps=1e-6):
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        st = state.setdefault(name, {"Eg": np.zeros_like(p.data), "Ex": np.zeros_like(p.data)})
        st["Eg"] = rho * st["Eg"] + (1.0 - rho) * g * g
        dx = -np.sqrt(st["Ex"] + eps) / np.sqrt(st["Eg"] + eps) * g
        st["Ex"] = rho * st["Ex"] + (1.0 - rho) * dx * dx
        p.data += dx


def reference_adam(params, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    state["step"] = t = state.get("step", 0) + 1
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        st = state.setdefault(name, {"m": np.zeros_like(p.data), "v": np.zeros_like(p.data)})
        st["m"] = beta1 * st["m"] + (1.0 - beta1) * g
        st["v"] = beta2 * st["v"] + (1.0 - beta2) * g * g
        m_hat = st["m"] / (1.0 - beta1 ** t)
        v_hat = st["v"] / (1.0 - beta2 ** t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


@pytest.mark.parametrize("update,reference", [
    (adadelta_update, reference_adadelta),
    (lambda ps, st: adam_update(ps, st, lr=0.003), lambda ps, st: reference_adam(ps, st, 0.003)),
], ids=["adadelta", "adam"])
def test_in_place_update_matches_reference_formulas(rng, monkeypatch, update, reference):
    # 8-element blocks: "long" spans four blocks, the last one partial
    monkeypatch.setattr(optim, "BLOCK", 8)
    shapes = {"w": (7, 5), "b": (7,), "frozen": (3,), "e": (11, 4), "long": (3, 11)}
    init = {k: rng.standard_normal(s) for k, s in shapes.items()}
    got = {k: param(v.copy()) for k, v in init.items()}
    want = {k: param(v.copy()) for k, v in init.items()}
    got_state, want_state = {}, {}
    for _ in range(3):  # Adam's bias correction differs at every step
        for k, s in shapes.items():
            g = None if k == "frozen" else rng.standard_normal(s) * 3.0
            if k == "long":   # a gradient in another memory layout
                g = np.asfortranarray(g)
            got[k].grad = None if g is None else g.copy()
            want[k].grad = None if g is None else g.copy()
        update(got, got_state)
        reference(want, want_state)
        for k in shapes:
            assert np.array_equal(got[k].data, want[k].data), k
    assert got_state.keys() == want_state.keys()
    for key, val in want_state.items():
        if isinstance(val, dict):
            assert val.keys() == got_state[key].keys()
            for slot, arr in val.items():
                assert np.array_equal(got_state[key][slot], arr), (key, slot)
        else:
            assert got_state[key] == val


class TestClip:
    def test_within_threshold_untouched(self):
        p = param([1.0])
        g = np.array([3.0, -9.9])
        p.grad = g.copy()
        clip_gradients({"p": p}, 10.0)
        np.testing.assert_array_equal(p.grad, g)

    def test_clamps_elementwise(self):
        p = param([0.0, 0.0])
        p.grad = np.array([-42.0, 17.0])
        clip_gradients({"p": p}, 10.0)
        np.testing.assert_array_equal(p.grad, [-10.0, 10.0])

    def test_idempotent(self, rng):
        p = param(rng.standard_normal(20))
        p.grad = rng.standard_normal(20) * 30
        clip_gradients({"p": p}, 10.0)
        once = p.grad.copy()
        clip_gradients({"p": p}, 10.0)
        np.testing.assert_array_equal(p.grad, once)

    def test_returns_the_clamped_count(self):
        p, q = param([0.0, 0.0, 0.0]), param([0.0, 0.0])
        p.grad = np.array([-42.0, 10.0, 17.0])
        q.grad = np.array([3.0, -10.5])
        assert clip_gradients({"p": p, "q": q, "none": param([0.0])}, 10.0) == 3
        assert clip_gradients({"p": p, "q": q}, 10.0) == 0

    def test_positive_threshold_required(self):
        with pytest.raises(ContractError):
            clip_gradients({}, 0.0)


class TestStateSerialization:
    def test_round_trip(self, rng):
        p = param(rng.standard_normal(4))
        state = {}
        for _ in range(3):
            p.grad = rng.standard_normal(4)
            adam_update({"p": p}, state, lr=0.01)
        arrays = opt_state_arrays(state)
        restored = opt_state_from_arrays(arrays)
        assert restored["step"] == state["step"]
        np.testing.assert_array_equal(restored["p"]["m"], state["p"]["m"])
        np.testing.assert_array_equal(restored["p"]["v"], state["p"]["v"])

    def test_from_arrays_keeps_the_arrays_it_is_given(self, rng):
        arrays = {"p/m": rng.standard_normal(4), "p/v": rng.random(4), "step": np.asarray(3.0)}
        state = opt_state_from_arrays(arrays)
        assert state["p"]["m"] is arrays["p/m"] and state["p"]["v"] is arrays["p/v"]
        assert state["step"] == 3

    def test_zero_grads(self):
        p = param([1.0])
        p.grad = np.ones(1)
        zero_grads({"p": p})
        assert p.grad is None

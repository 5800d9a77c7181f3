"""Flat parameter arena: round-trips, view aliasing, fused-optimizer parity.

The arena contract (see ``repro/comm/params.py``): after construction,
``Parameter.data`` and every registered buffer are *views* into one
contiguous fp64 vector, and every in-repo mutation path (optimizer steps,
``set_buffer``, ``load_state_dict``, ``arena.write``) preserves that
aliasing.  An optimizer is built on the arena and its step — one
kernel call on the flat vectors — must be bitwise-identical to the
retired per-parameter updates (``tests/reference_optim.py``), which
replicate the seed arithmetic.

The **grad arena** extends the same contract to gradients: every
``param.grad`` produced by backward on an arena-backed model is a view
into ``arena.grad_flat`` (params prefix, ``named_parameters`` order),
``zero_grad`` is one vectorized fill with zero per-parameter calls, and
the optimizer step reads ``grad_flat`` itself — no per-parameter gather,
no per-step flat-buffer allocation.
"""

import gc
import sys
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from reference_optim import ReferenceAdam, ReferenceSGD

from repro.comm.params import ParamArena
from repro.nn import models
from repro.optim import SGD, Adam
from repro.autograd import Tensor
from repro.nn.losses import CrossEntropyLoss


def _model(seed=0):
    return models.SimpleCNN(image_size=8, width=4, rng=np.random.default_rng(seed))


def _reference_flat(model):
    chunks = [p.data.reshape(-1) for _, p in model.named_parameters()]
    chunks.extend(b.reshape(-1) for _, b in model.named_buffers())
    return np.concatenate(chunks)


class TestArenaRoundTrip:
    # Both arena configurations in runtime use: training replicas bind
    # gradients, the evaluation replicas (bind_grads=False) do not.
    @pytest.mark.parametrize("bind_grads", [True, False])
    def test_construction_preserves_state(self, bind_grads):
        model = _model(0)
        reference = _reference_flat(model)
        arena = ParamArena(model, bind_grads=bind_grads)
        np.testing.assert_array_equal(arena.read(), reference)
        np.testing.assert_array_equal(_reference_flat(model), reference)
        assert (arena.grad_flat is not None) == bind_grads

    @pytest.mark.parametrize("bind_grads", [True, False])
    def test_write_read_roundtrip(self, bind_grads):
        model = _model(0)
        arena = ParamArena(model, bind_grads=bind_grads)
        rng = np.random.default_rng(3)
        incoming = rng.normal(size=arena.num_scalars)
        arena.write(incoming)
        np.testing.assert_array_equal(arena.snapshot(), incoming)
        # The write landed in the actual parameters, not just the vector.
        np.testing.assert_array_equal(_reference_flat(model), incoming)

    def test_mix_matches_affine_blend(self):
        model = _model(0)
        arena = ParamArena(model)
        own = arena.snapshot()
        incoming = np.random.default_rng(5).normal(size=arena.num_scalars)
        arena.mix(incoming, own_weight=0.25)
        np.testing.assert_array_equal(
            arena.snapshot(), 0.25 * own + 0.75 * incoming
        )

    def test_size_validation(self):
        arena = ParamArena(_model(0))
        with pytest.raises(ValueError):
            arena.write(np.zeros(3))
        with pytest.raises(ValueError):
            arena.mix(np.zeros(3), own_weight=0.5)

    def test_param_prefix_layout(self):
        model = _model(0)
        arena = ParamArena(model)
        assert arena.param_scalars == sum(p.size for p in model.parameters())
        np.testing.assert_array_equal(
            arena.flat[: arena.param_scalars],
            np.concatenate([p.data.reshape(-1) for p in model.parameters()]),
        )


class TestArenaAliasing:
    def test_arena_mutation_visible_through_parameters(self):
        model = _model(0)
        arena = ParamArena(model)
        arena.flat[:] = 7.5
        for param in model.parameters():
            assert np.all(param.data == 7.5)
        for _, buf in model.named_buffers():
            assert np.all(buf == 7.5)

    def test_parameter_mutation_visible_through_arena(self):
        model = _model(0)
        arena = ParamArena(model)
        first = model.parameters()[0]
        first.data[...] = -3.0
        assert np.all(arena.flat[: first.data.size] == -3.0)

    def test_aliasing_survives_load_state_dict(self):
        model = _model(0)
        donor = _model(1)
        arena = ParamArena(model)
        views = [p.data for p in model.parameters()]
        model.load_state_dict(donor.state_dict())
        for param, view in zip(model.parameters(), views):
            assert param.data is view  # storage identity preserved
        np.testing.assert_array_equal(arena.read(), _reference_flat(donor))

    def test_aliasing_survives_batchnorm_forward(self):
        model = _model(0)
        arena = ParamArena(model)
        model.train()
        x = Tensor(np.random.default_rng(0).normal(size=(4, 3, 8, 8)))
        model(x)  # BatchNorm updates running stats via set_buffer
        np.testing.assert_array_equal(arena.read(), _reference_flat(model))

    def test_ensure_bound_repairs_external_rebind(self):
        model = _model(0)
        arena = ParamArena(model)
        first = model.parameters()[0]
        first.data = np.full(first.data.shape, 4.0)  # foreign rebind
        flat = arena.read()  # ensure_bound copies the values back in
        assert first.data.base is not None
        assert np.all(flat[: first.data.size] == 4.0)


class TestArenaOwnership:
    """Module -> arena is the only strong edge: no reference cycle, so a
    dropped model frees its arena by refcount, with the collector off."""

    @pytest.fixture(autouse=True)
    def _collector_off(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    def test_dropped_model_frees_arena_and_storage(self):
        from repro.nn.norm import BatchNorm2d

        # SimpleCNN: buffer owners below the root; BatchNorm2d: the root
        # itself owns buffers (the arena may hold neither strongly).
        for factory in (_model, lambda: BatchNorm2d(4)):
            model = factory()
            ParamArena(model)
            arena, flat = weakref.ref(model.arena), weakref.ref(model.arena.flat)
            del model
            assert arena() is None and flat() is None

    def test_arena_outlives_its_module(self):
        arena = ParamArena(_model(0))
        before = arena.snapshot()
        arena.rebind_storage(
            np.empty(arena.num_scalars), np.zeros(arena.param_scalars)
        )
        np.testing.assert_array_equal(arena.read(), before)

    @pytest.mark.parametrize(
        "model, executor", [("mlp", "serial"), ("mlp", "fleet"), ("simple_cnn", "serial")]
    )
    def test_finished_cluster_frees_device_arenas(self, model, executor):
        from repro.core import HADFLTrainer
        from repro.experiments import ExperimentConfig

        config = ExperimentConfig(
            model=model, num_train=128, num_test=64, image_size=8,
            target_epochs=3.0, seed=5, executor=executor,
        )
        cluster = config.make_cluster()
        trainer = HADFLTrainer(cluster, params=config.hadfl_params(), seed=5)
        result = trainer.run(target_epochs=3.0)
        assert result.rounds
        arenas = [weakref.ref(device.arena) for device in cluster.devices]
        del cluster, trainer
        assert all(arena() is None for arena in arenas)


class TestFusedOptimizerParity:
    def _grads(self, model, seed=11):
        """Random gradients in the bound views, as a backward leaves them."""
        rng = np.random.default_rng(seed)
        for param in model.parameters():
            param._grad_view[...] = rng.normal(size=param.data.shape)
            param.grad = param._grad_view

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lr=0.05),
            dict(lr=0.05, momentum=0.9),
            dict(lr=0.05, weight_decay=1e-3),
            dict(lr=0.05, momentum=0.9, weight_decay=1e-3),
        ],
    )
    def test_sgd_fused_bitwise_equals_fallback(self, kwargs):
        fused_model, plain_model = _model(0), _model(0)
        fused = SGD(ParamArena(fused_model), **kwargs)
        plain = ReferenceSGD(ParamArena(plain_model), **kwargs)
        for step_seed in range(3):
            self._grads(fused_model, seed=step_seed)
            self._grads(plain_model, seed=step_seed)
            fused.step()
            plain.step()
        np.testing.assert_array_equal(
            _reference_flat(fused_model), _reference_flat(plain_model)
        )

    def test_adam_fused_bitwise_equals_fallback(self):
        fused_model, plain_model = _model(0), _model(0)
        fused = Adam(ParamArena(fused_model), lr=1e-3, weight_decay=1e-4)
        plain = ReferenceAdam(ParamArena(plain_model), lr=1e-3, weight_decay=1e-4)
        for step_seed in range(3):
            self._grads(fused_model, seed=step_seed)
            self._grads(plain_model, seed=step_seed)
            fused.step()
            plain.step()
        np.testing.assert_array_equal(
            _reference_flat(fused_model), _reference_flat(plain_model)
        )

    def test_end_to_end_training_with_arena(self):
        model = _model(0)
        opt = SGD(ParamArena(model), lr=0.05, momentum=0.9)
        loss_fn = CrossEntropyLoss()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(16, 3, 8, 8))
        y = rng.integers(0, 10, size=16)
        first_loss = None
        for _ in range(15):
            opt.zero_grad()
            loss = loss_fn(model(Tensor(x)), y)
            loss.backward()
            opt.step()
            if first_loss is None:
                first_loss = float(loss.data)
        assert float(loss.data) < first_loss


def _scalar_offset(view: np.ndarray, base: np.ndarray) -> int:
    """Element offset of ``view``'s storage within the 1-D ``base``."""
    delta = (
        view.__array_interface__["data"][0]
        - base.__array_interface__["data"][0]
    )
    assert delta % base.itemsize == 0
    return delta // base.itemsize


def _backward_once(model, seed=0, batch=8):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, 3, 8, 8))
    y = rng.integers(0, 10, size=batch)
    loss = CrossEntropyLoss()(model(Tensor(x)), y)
    loss.backward()
    return loss


def _spy_kernel(opt):
    """Spy on ``opt._kernel``; ``_gradients(spy)`` lists the ``g`` operands."""
    spy = mock.MagicMock(wraps=opt._kernel)
    opt._kernel = spy
    return spy


def _gradients(spy):
    return [call.args[1] for call in spy.call_args_list]


class TestGradArena:
    def test_backward_writes_views_into_grad_flat(self):
        """Every ``param.grad`` is a view into ``grad_flat`` at the same
        offset the parameter occupies in the params prefix — including
        bias parameters, whose gradients arrive through the
        broadcast/unbroadcast path."""
        model = _model(0)
        arena = ParamArena(model)
        _backward_once(model)
        cursor = 0
        for name, param in model.named_parameters():
            grad = param.grad
            assert grad is not None, name
            assert grad.shape == param.data.shape
            assert np.shares_memory(grad, arena.grad_flat), name
            assert _scalar_offset(grad, arena.grad_flat) == cursor, name
            cursor += param.data.size
        assert cursor == arena.param_scalars

    def test_second_backward_accumulates_in_place(self):
        model = _model(0)
        arena = ParamArena(model)
        _backward_once(model, seed=1)
        views = [p.grad for p in model.parameters()]
        single = arena.grad_flat.copy()
        _backward_once(model, seed=1)  # same batch: gradient doubles
        for param, view in zip(model.parameters(), views):
            assert param.grad is view  # accumulated, not reallocated
        np.testing.assert_array_equal(arena.grad_flat, 2.0 * single)

    def test_module_zero_grad_is_single_fill(self):
        model = _model(0)
        arena = ParamArena(model)
        _backward_once(model)
        assert arena.grad_flat.any()
        calls = []
        original = Tensor.zero_grad
        Tensor.zero_grad = lambda self: calls.append(self) or original(self)
        try:
            model.zero_grad()
        finally:
            Tensor.zero_grad = original
        assert calls == []  # regression: no per-param zero_grad calls
        assert not arena.grad_flat.any()
        # Grads stay bound views of zeros; backward accumulates afresh.
        for param in model.parameters():
            assert param.grad is param._grad_view

    def test_unbound_module_keeps_per_param_zero_grad(self):
        model = _model(0)
        _backward_once(model)
        calls = []
        original = Tensor.zero_grad
        Tensor.zero_grad = lambda self: calls.append(self) or original(self)
        try:
            model.zero_grad()
        finally:
            Tensor.zero_grad = original
        assert len(calls) == len(model.parameters())
        assert all(p.grad is None for p in model.parameters())

    def test_optimizer_zero_grad_is_single_fill(self):
        model = _model(0)
        arena = ParamArena(model)
        opt = SGD(arena, lr=0.1)
        _backward_once(model)
        calls = []
        original = Tensor.zero_grad
        Tensor.zero_grad = lambda self: calls.append(self) or original(self)
        try:
            opt.zero_grad()
        finally:
            Tensor.zero_grad = original
        assert calls == []
        assert not arena.grad_flat.any()

    def test_zero_grad_drops_foreign_grad(self):
        """A manually assigned gradient (foreign storage) must not survive
        the vectorized reset — seed semantics leave it ``None``."""
        model = _model(0)
        arena = ParamArena(model)
        first = model.parameters()[0]
        first.grad = np.ones(first.data.shape)
        model.zero_grad()
        assert first.grad is None
        _backward_once(model)
        assert first.grad is first._grad_view
        assert np.shares_memory(first.grad, arena.grad_flat)

    def test_fused_step_adopts_grads_zero_copy(self):
        """The flat step must read gradients straight off ``grad_flat``:
        the kernel's gradient operand *is* the arena's grad storage and
        its weight operand the arena's parameter prefix, one call per
        step."""
        model = _model(0)
        arena = ParamArena(model)
        opt = SGD(arena, lr=0.05, momentum=0.9)
        seen = _spy_kernel(opt)
        for step in range(3):
            opt.zero_grad()
            _backward_once(model, seed=step)
            opt.step()
        assert seen.call_count == 3  # one flat call per step
        assert all(g is arena.grad_flat for g in _gradients(seen))
        for call in seen.call_args_list:
            weights = call.args[0]
            assert weights.base is arena.flat and weights.size == arena.param_scalars

    def test_kernels_do_not_mutate_live_gradients(self):
        """``flat_grad`` aliases ``param.grad`` on the arena path, so the
        fused kernels must leave it untouched."""
        for make_opt in (
            lambda arena: SGD(arena, lr=0.05, momentum=0.9, weight_decay=1e-3),
            lambda arena: Adam(arena, lr=1e-3, weight_decay=1e-3),
        ):
            model = _model(0)
            arena = ParamArena(model)
            opt = make_opt(arena)
            opt.zero_grad()
            _backward_once(model)
            before = arena.grad_flat.copy()
            opt.step()
            np.testing.assert_array_equal(arena.grad_flat, before)

    @pytest.mark.parametrize(
        "make_opt",
        [
            lambda arena, sgd=SGD, adam=Adam: sgd(arena, lr=0.05),
            lambda arena, sgd=SGD, adam=Adam: sgd(arena, lr=0.05, momentum=0.9),
            lambda arena, sgd=SGD, adam=Adam: sgd(
                arena, lr=0.05, momentum=0.9, weight_decay=1e-3
            ),
            lambda arena, sgd=SGD, adam=Adam: adam(arena, lr=1e-3),
            lambda arena, sgd=SGD, adam=Adam: adam(arena, lr=1e-3, weight_decay=1e-4),
        ],
    )
    def test_real_backward_trajectories_bitwise_equal(self, make_opt):
        """Flat step vs the reference per-parameter update, both on a
        grad arena and driven by real backwards: identical losses and
        final parameters, bit for bit.  (Bound vs unbound backward
        accumulation is ``tests/property/test_property_grad_arena.py``.)"""

        def run(mode):
            model = _model(0)
            arena = ParamArena(model)
            if mode == "fallback":
                opt = make_opt(arena, sgd=ReferenceSGD, adam=ReferenceAdam)
            else:
                opt = make_opt(arena)
            losses = []
            for step in range(5):
                opt.zero_grad()
                loss = _backward_once(model, seed=step)
                opt.step()
                losses.append(float(loss.data))
            return losses, _reference_flat(model)

        ref_losses, ref_flat = run("fused")
        losses, flat = run("fallback")
        assert losses == ref_losses
        np.testing.assert_array_equal(flat, ref_flat)

    def test_unbound_arena_has_no_grad_vector(self):
        model = _model(0)
        arena = ParamArena(model, bind_grads=False)
        assert arena.grad_flat is None
        assert not arena.zero_grads()
        _backward_once(model)
        for param in model.parameters():
            assert param._grad_view is None
            assert param.grad is not None
            assert param.grad.base is None  # freshly allocated, seed-style

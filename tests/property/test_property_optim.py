"""``Optimizer.step`` — one kernel, two call shapes — vs the retired
per-parameter updates.

``tests/reference_optim.py`` keeps the ``SGD._update`` / ``Adam._update``
loops the package shipped as its fallback path.  Whatever shape the
production step takes — one ``_kernel`` call on the flat vectors, or one
per parameter on slices — parameters and optimizer state must come out
bit-equal to that loop, over random shapes and hyper-parameters, with
each parameter's gradient independently living in its bound view,
missing (``None``), narrow (fp32) or on foreign strided storage, and the
parameters arena-bound, privately packed, arena-bound without gradient
storage, or unpackable views of someone else's memory.  A parameter
whose gradient is ``None`` keeps its data *and* its state slices.
"""

import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from reference_optim import ReferenceAdam, ReferenceSGD  # noqa: E402
from repro.comm.params import ParamArena  # noqa: E402
from repro.nn.module import Module, Parameter  # noqa: E402
from repro.optim import SGD, Adam  # noqa: E402

GRAD_KINDS = ("bound", "none", "fp32", "strided")
BINDINGS = ("arena", "packed", "arena_unbound_grads", "foreign_views")

shapes = st.lists(
    st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
    min_size=1,
    max_size=4,
)


@st.composite
def optimizer_config(draw):
    decay = draw(st.sampled_from([0.0, 1e-3, 0.1]))
    if draw(st.booleans()):
        momentum = draw(st.sampled_from([0.0, 0.5, 0.9]))
        nesterov = bool(momentum) and draw(st.booleans())
        kwargs = dict(
            lr=draw(st.sampled_from([0.01, 0.3])),
            momentum=momentum,
            nesterov=nesterov,
            weight_decay=decay,
        )
        return SGD, ReferenceSGD, kwargs
    kwargs = dict(
        lr=draw(st.sampled_from([1e-3, 0.05])),
        betas=draw(st.sampled_from([(0.9, 0.999), (0.5, 0.9), (0.0, 0.0)])),
        weight_decay=decay,
    )
    return Adam, ReferenceAdam, kwargs


class _Bag(Module):
    """A module that is nothing but its parameters."""

    def __init__(self, arrays):
        super().__init__()
        for index, array in enumerate(arrays):
            setattr(self, f"p{index}", Parameter(array))


def _build(binding, values):
    """Parameters holding ``values`` under one of the four bindings; the
    second return value keeps whatever owns their storage alive."""
    if binding == "packed":
        return [Parameter(v.copy()) for v in values], None
    if binding == "foreign_views":
        # Views of memory the optimizer does not own: it must not repack.
        owners = [np.zeros(2 * v.size) for v in values]
        params = []
        for owner, value in zip(owners, values):
            view = owner[: value.size].reshape(value.shape)
            view[...] = value
            params.append(Parameter(view))
        return params, owners
    bag = _Bag([v.copy() for v in values])
    ParamArena(bag, bind_grads=(binding == "arena"))
    return bag.parameters(), bag


def _assign(param, kind, grad):
    """Leave ``grad`` on ``param`` the way ``kind`` says (see module doc)."""
    if kind == "none":
        param.grad = None
    elif kind == "bound" and param._grad_view is not None:
        param._grad_view[...] = grad  # what a backward leaves behind
        param.grad = param._grad_view
    elif kind == "strided":
        wide = np.zeros(grad.shape + (2,))
        wide[..., 0] = grad
        param.grad = wide[..., 0]
    else:  # "fp32", or "bound" on a parameter without bound storage
        param.grad = grad.astype(np.float32) if kind == "fp32" else grad.copy()


@settings(max_examples=150, deadline=None)
@given(
    shapes=shapes,
    config=optimizer_config(),
    binding=st.sampled_from(BINDINGS),
    steps=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
    data=st.data(),
)
def test_step_matches_reference_per_parameter_update(
    shapes, config, binding, steps, seed, data
):
    production, reference, kwargs = config
    rng = np.random.default_rng(seed)
    values = [rng.normal(size=shape) for shape in shapes]
    params, _keepalive = _build(binding, values)
    ref_params = [Parameter(v.copy()) for v in values]
    opt, ref_opt = production(params, **kwargs), reference(ref_params, **kwargs)

    for _ in range(steps):
        kinds = [data.draw(st.sampled_from(GRAD_KINDS)) for _ in params]
        for param, ref_param, kind in zip(params, ref_params, kinds):
            grad = rng.normal(size=param.data.shape)
            if kind == "fp32":  # both sides see the same narrow values
                grad = grad.astype(np.float32).astype(np.float64)
            _assign(param, kind, grad)
            ref_param.grad = None if kind == "none" else grad.copy()
        before = [
            (p.data.copy(), [vec[sl].copy() for vec in opt.flat_state()])
            for p, sl in zip(params, opt._slices)
        ]
        opt.step()
        ref_opt.step()
        for param, ref_param in zip(params, ref_params):
            assert param.data.tobytes() == ref_param.data.tobytes()
        for vec, ref_vec in zip(opt.flat_state(), ref_opt.flat_state()):
            assert vec.tobytes() == ref_vec.tobytes()
        for param, sl, kind, (data_before, state_before) in zip(
            params, opt._slices, kinds, before
        ):
            if kind == "none":  # skipped: data and state untouched
                assert param.data.tobytes() == data_before.tobytes()
                for vec, saved in zip(opt.flat_state(), state_before):
                    assert vec[sl].tobytes() == saved.tobytes()


def test_both_call_shapes_are_reached():
    """The property above is vacuous unless both shapes occur: count the
    kernel calls of the two extreme cases."""
    from unittest import mock

    bag = _Bag([np.ones((2, 3)), np.ones(4)])
    ParamArena(bag)
    opt = SGD(bag.parameters(), lr=0.1, momentum=0.9)
    for param in bag.parameters():
        _assign(param, "bound", np.ones(param.data.shape))
    with mock.patch.object(opt, "_kernel", wraps=opt._kernel) as spy:
        opt.step()
        assert spy.call_count == 1 and spy.call_args.args[0].shape == (10,)
        _assign(bag.parameters()[1], "none", None)
        opt.step()
        assert spy.call_count == 2 and spy.call_args.args[0].shape == (2, 3)

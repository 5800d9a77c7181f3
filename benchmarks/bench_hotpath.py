"""Hot-path microbenchmark: flat arena + fused optimizers vs seed paths.

Times the three bookkeeping hot spots the flat parameter arena removes,
each against a faithful re-implementation of the seed (pre-arena) code:

* **codec round-trip** — full model state out and back in.  Seed: per-
  parameter ``np.concatenate`` + ``.copy()`` + ``dict(named_parameters)``
  and ``_buffer_owners()`` rebuilt on every call.  Arena: one vectorized
  copy out, one vectorized write back.
* **optimizer step** — SGD (momentum + weight decay) and Adam.  Seed:
  per-parameter Python loop allocating fresh temporaries.  Arena: one
  kernel call of a fixed number of in-place full-vector ops.
* **grad path** — one full local training step (``zero_grad`` +
  forward + backward + ``step``).  Seed: per-parameter ``grad = None``
  reset, per-tensor gradient allocation in backward, and a per-parameter
  gather into a scratch flat buffer before the kernel
  (``ParamArena(bind_grads=False)`` reproduces exactly this, the
  pre-grad-arena behaviour).  Grad arena: one ``grad_flat.fill(0.0)``,
  backward accumulates straight into the flat vector, and the step
  adopts it zero-copy — no gather, no per-step allocation.

Writes the repo-root trajectory artefact ``BENCH_hotpath.json``.  Scale
via ``REPRO_BENCH_HOTPATH_REPEATS``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

if __name__ == "__main__":  # standalone run: one BLAS thread, set before NumPy loads
    for _pin in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_pin, "1")

import numpy as np

from repro.comm.params import ParamArena
from repro.nn import models
from repro.optim import SGD, Adam
from repro.sim import Device

REPO_ROOT = Path(__file__).resolve().parent.parent


# --------------------------------------------------------------------- #
# Seed (pre-arena) reference implementations, replicated verbatim from
# the seed's flat-parameter codec and optimizer code paths.
# --------------------------------------------------------------------- #


def seed_flatten(module) -> np.ndarray:
    chunks = [param.data.reshape(-1) for _, param in module.named_parameters()]
    chunks.extend(buf.reshape(-1) for _, buf in module.named_buffers())
    return np.concatenate(chunks) if chunks else np.empty(0)


def seed_unflatten(module, flat: np.ndarray) -> None:
    flat = np.asarray(flat)
    cursor = 0
    params = dict(module.named_parameters())
    for name, param in params.items():
        size = int(param.data.size)
        param.data = flat[cursor : cursor + size].reshape(param.data.shape).copy()
        cursor += size
    owners = module._buffer_owners()
    for name, _ in list(module.named_buffers()):
        owner, local = owners[name]
        buf = owner._buffers[local]
        size = int(buf.size)
        owner.set_buffer(local, flat[cursor : cursor + size].reshape(buf.shape))
        cursor += size


def seed_sgd_step(params, lr, momentum, weight_decay, buffers):
    for index, param in enumerate(params):
        grad = param.grad
        if weight_decay:
            grad = grad + weight_decay * param.data
        if momentum:
            buf = buffers[index]
            if buf is None:
                buf = grad.copy()
            else:
                buf *= momentum
                buf += grad
            buffers[index] = buf
            grad = buf
        param.data -= lr * grad


def seed_adam_step(params, lr, beta1, beta2, eps, state):
    state["t"] += 1
    t = state["t"]
    for index, param in enumerate(params):
        grad = param.grad
        m, v = state["m"][index], state["v"][index]
        m *= beta1
        m += (1 - beta1) * grad
        v *= beta2
        v += (1 - beta2) * grad**2
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        param.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


@contextmanager
def legacy_device_paths():
    """Route every Device through the seed codec path (no arena reads)."""

    def legacy_get(self):
        return seed_flatten(self.model)

    def legacy_set(self, flat):
        seed_unflatten(self.model, flat)

    def legacy_mix(self, incoming, own_weight=0.5):
        if not 0.0 <= own_weight <= 1.0:
            raise ValueError(f"own_weight must be in [0, 1], got {own_weight}")
        current = seed_flatten(self.model)
        seed_unflatten(
            self.model, own_weight * current + (1.0 - own_weight) * incoming
        )

    with mock.patch.multiple(
        Device,
        get_params=legacy_get,
        get_params_view=legacy_get,
        set_params=legacy_set,
        mix_params=legacy_mix,
    ):
        yield


# --------------------------------------------------------------------- #
# Timing helpers
# --------------------------------------------------------------------- #


def _best_of(fn, repeats: int, inner: int) -> float:
    """Best per-call seconds over ``repeats`` trials of ``inner`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - start) / inner)
    return best


def _make_model(seed=0):
    return models.resnet_mini(num_classes=10, rng=np.random.default_rng(seed))


def _seeded_grads(model, seed=7):
    rng = np.random.default_rng(seed)
    for param in model.parameters():
        param.grad = rng.normal(size=param.data.shape)


def _step_params(seed):
    """Seed-side parameters and an arena-backed twin with equal gradients.
    The twin's are assigned *before* the arena binds them, so they
    migrate into ``grad_flat`` and its ``step()`` is the flat call."""
    legacy_model, arena_model = _make_model(seed), _make_model(seed)
    _seeded_grads(legacy_model)
    _seeded_grads(arena_model)
    ParamArena(arena_model)
    return legacy_model.parameters(), arena_model.parameters()


# --------------------------------------------------------------------- #
# Benchmarks
# --------------------------------------------------------------------- #


def bench_codec(repeats: int, inner: int) -> dict:
    legacy_model = _make_model(0)
    arena_model = _make_model(0)
    arena = ParamArena(arena_model)
    probe = seed_flatten(legacy_model)

    def legacy_roundtrip():
        flat = seed_flatten(legacy_model)
        seed_unflatten(legacy_model, flat)

    def arena_roundtrip():
        flat = arena.snapshot()
        arena.write(flat)

    seed_s = _best_of(legacy_roundtrip, repeats, inner)
    arena_s = _best_of(arena_roundtrip, repeats, inner)
    np.testing.assert_array_equal(arena.snapshot(), probe)
    return {
        "num_scalars": int(probe.size),
        "seed_s": seed_s,
        "arena_s": arena_s,
        "speedup": seed_s / arena_s,
    }


def bench_sgd(repeats: int, inner: int) -> dict:
    lr, momentum, wd = 0.01, 0.9, 1e-4
    legacy_params, arena_params = _step_params(1)
    legacy_buffers = [None] * len(legacy_params)
    fused_opt = SGD(arena_params, lr=lr, momentum=momentum, weight_decay=wd)

    seed_s = _best_of(
        lambda: seed_sgd_step(legacy_params, lr, momentum, wd, legacy_buffers),
        repeats,
        inner,
    )
    fused_s = _best_of(fused_opt.step, repeats, inner)
    assert kernel_calls_per_step(fused_opt) == 1, "step left the flat call"
    return {"seed_s": seed_s, "fused_s": fused_s, "speedup": seed_s / fused_s}


def bench_adam(repeats: int, inner: int) -> dict:
    lr, beta1, beta2, eps = 1e-3, 0.9, 0.999, 1e-8
    legacy_params, arena_params = _step_params(2)
    legacy_state = {
        "t": 0,
        "m": [np.zeros_like(p.data) for p in legacy_params],
        "v": [np.zeros_like(p.data) for p in legacy_params],
    }
    fused_opt = Adam(arena_params, lr=lr, betas=(beta1, beta2), eps=eps)

    seed_s = _best_of(
        lambda: seed_adam_step(legacy_params, lr, beta1, beta2, eps, legacy_state),
        repeats,
        inner,
    )
    fused_s = _best_of(fused_opt.step, repeats, inner)
    assert kernel_calls_per_step(fused_opt) == 1, "step left the flat call"
    return {"seed_s": seed_s, "fused_s": fused_s, "speedup": seed_s / fused_s}


class SeedGatherSGD(SGD):
    """PR1–3 step semantics, replicated verbatim: per-parameter
    ``zero_grad`` loop and a per-step gather of every gradient into a
    scratch flat buffer before the kernel (no zero-copy grad
    adoption)."""

    _gathered = None

    def zero_grad(self):
        for param in self.params:
            param.zero_grad()

    def step(self):
        grads = [param.grad for param in self.params]
        flat = self._bind_flat()
        flat_grad = self._gathered
        if flat_grad is None:
            flat_grad = self._gathered = np.empty(self.num_scalars, dtype=np.float64)
        for grad, sl in zip(grads, self._slices):
            flat_grad[sl] = grad.reshape(-1)
        self._kernel(flat, flat_grad, self.flat_state(), self._scratch_vectors())


def kernel_calls_per_step(opt) -> int:
    """``_kernel`` calls of one more ``opt.step()`` on the gradients at
    hand: 1 is the flat call shape, ``len(params)`` the per-parameter one."""
    with mock.patch.object(opt, "_kernel", wraps=opt._kernel) as spy:
        opt.step()
    return spy.call_count


def _grad_path_model(seed=5, depth=16, width=32, num_inputs=24):
    """Deep, narrow MLP: many small parameter tensors, so per-parameter
    gradient bookkeeping is a visible share of a local step."""
    from repro import nn

    rng = np.random.default_rng(seed)
    layers = []
    fan_in = num_inputs
    for _ in range(depth):
        layers.append(nn.Linear(fan_in, width, rng=rng))
        layers.append(nn.ReLU())
        fan_in = width
    layers.append(nn.Linear(fan_in, 10, rng=rng))
    return nn.Sequential(*layers)


def bench_grad_path(repeats: int, inner: int) -> dict:
    """backward + zero_grad + step: gather-based seed vs grad arena.

    The seed side is ``ParamArena(bind_grads=False)`` (per-tensor
    gradient allocation in backward) driven by :class:`SeedGatherSGD`
    (per-parameter ``zero_grad`` loop + per-step gather) — the exact
    pre-grad-arena hot path.  The arena side accumulates straight into
    ``grad_flat``, zeroes it with one fill and steps off it zero-copy.

    Two measurements per side:

    * ``micro`` — the backward+zero_grad+step section of a real training
      cycle (a fresh forward rebuilds the graph each iteration but is
      excluded from the timed section);
    * ``step`` — the optimizer step alone on gradients left by a real
      backward, where removing the gather shows directly.

    Both sides consume the same fixed batch, so the cycle losses must be
    bitwise identical — asserted below, as is the zero-gather property
    (the arena side's step is one kernel call on the flat vectors).
    """
    from repro.autograd import Tensor
    from repro.nn.losses import CrossEntropyLoss

    lr, momentum, wd = 0.01, 0.9, 1e-4
    rng = np.random.default_rng(6)
    x = rng.normal(size=(8, 24))
    y = rng.integers(0, 10, size=8)
    loss_fn = CrossEntropyLoss()

    def make_side(bind_grads):
        model = _grad_path_model()
        ParamArena(model, bind_grads=bind_grads)
        opt_cls = SGD if bind_grads else SeedGatherSGD
        opt = opt_cls(model.parameters(), lr=lr, momentum=momentum, weight_decay=wd)
        return model, opt

    def run_micro(bind_grads):
        model, opt = make_side(bind_grads)
        losses = []

        def timed_section() -> float:
            loss = loss_fn(model(Tensor(x)), y)  # untimed: rebuild graph
            start = time.perf_counter()
            opt.zero_grad()
            loss.backward()
            opt.step()
            elapsed = time.perf_counter() - start
            losses.append(float(loss.data))
            return elapsed

        best = float("inf")
        for _ in range(repeats):
            total = 0.0
            for _ in range(inner):
                total += timed_section()
            best = min(best, total / inner)
        return best, losses

    def run_step(bind_grads):
        model, opt = make_side(bind_grads)
        loss_fn(model(Tensor(x)), y).backward()  # one real backward
        step_s = _best_of(opt.step, repeats, inner)
        flat = np.concatenate([p.data.reshape(-1) for p in model.parameters()])
        return step_s, flat, opt

    seed_micro_s, seed_losses = run_micro(bind_grads=False)
    arena_micro_s, arena_losses = run_micro(bind_grads=True)
    seed_step_s, seed_flat, seed_opt = run_step(bind_grads=False)
    arena_step_s, arena_flat, arena_opt = run_step(bind_grads=True)
    np.testing.assert_array_equal(seed_flat, arena_flat)
    assert kernel_calls_per_step(arena_opt) == 1, "grad arena step left the flat call"
    return {
        "num_params": len(seed_opt.params),
        "num_scalars": seed_opt.num_scalars,
        "seed_s": seed_step_s,
        "arena_s": arena_step_s,
        "speedup": seed_step_s / arena_step_s,
        "micro_seed_s": seed_micro_s,
        "micro_arena_s": arena_micro_s,
        "micro_speedup": seed_micro_s / arena_micro_s,
        "losses_bitwise_equal": seed_losses == arena_losses,
    }


def run(repeats: int = None) -> dict:
    if repeats is None:
        repeats = int(os.environ.get("REPRO_BENCH_HOTPATH_REPEATS", 5))
    inner = 20
    return {
        "codec_roundtrip": bench_codec(repeats, inner),
        "sgd_step": bench_sgd(repeats, inner),
        "adam_step": bench_adam(repeats, inner),
        "grad_path": bench_grad_path(repeats, inner),
    }


def main() -> dict:
    results = run()
    for name, entry in results.items():
        print(
            f"{name:18s} speedup {entry['speedup']:6.2f}x  "
            + "  ".join(
                f"{k}={entry[k]:.3e}"
                for k in ("seed_s", "arena_s", "fused_s")
                if k in entry
            )
        )
    payload = {
        "bench": "hotpath",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "results": results,
    }
    out = REPO_ROOT / "BENCH_hotpath.json"
    out.write_text(json.dumps(payload, indent=2))
    print(f"wrote {out}")
    return results


if __name__ == "__main__":
    main()

"""HADFL algorithm hyper-parameters."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.selection import SELECTION_POLICIES

#: Values of ``HADFLParams.sync_failure_policy``.
SYNC_FAILURE_POLICIES = ("continue", "skip_round", "fallback_dense")


@dataclass
class HADFLParams:
    """Knobs of the HADFL framework (defaults follow the paper).

    Parameters
    ----------
    tsync:
        Aggregation period in hyperperiods — "partial aggregation takes
        place every T_sync multiples of HE" (Sec. III-C).
    num_selected:
        N_p, devices performing partial synchronisation each round (the
        paper uses 2 of 4; "typically ≤ K/2" for the unselected count).
    warmup_epochs:
        E_warm_up of the mutual-negotiation phase (Sec. III-B).
    warmup_lr:
        The "small learning rate" used during negotiation.
    smoothing_alpha:
        α of the double-exponential version predictor (Eq. 7).
    selection_sigma:
        Kernel width of the probability-based selection (Eq. 8), in
        units of the versions' spread: the printed unit-variance kernel
        underflows once versions spread over hundreds of steps, so they
        are standardised first (see :mod:`repro.core.selection`).
    selection:
        Policy name: ``"gaussian_quartile"`` (the paper's Eq. 8),
        ``"uniform"``, ``"latest"``, or ``"worst"`` (the upper-bound
        study's forced choice of the weakest devices).
    unselected_mix_weight:
        Weight an unselected device keeps on its *local* parameters when
        integrating the broadcast model (Sec. III-D: "integrate the
        received model parameters with local parameters").
    adapt_local_steps:
        If True (the paper's "dynamic configuration update", workflow
        step 7), the strategy generator re-derives each device's step
        budget from the version predictor's forecast each round.
    sync_failure_policy:
        What the trainer does when a round's partial synchronisation
        produces no aggregate (every selected device died or became
        unreachable mid-protocol):

        * ``"continue"`` (default) — devices keep their local
          parameters and the round is recorded with
          ``detail["sync_failed"]``;
        * ``"skip_round"`` — the round's local training is rolled back
          (parameters, optimizer scalars and version counters restored
          to the window start), as if the window never happened; after
          ``repro.core.trainer.MAX_ROUND_ROLLBACKS`` consecutive
          rollbacks a live-lock guard keeps local progress instead, so
          a permanently failing sync cannot freeze the epoch counter;
        * ``"fallback_dense"`` — the coordinator re-dispatches the last
          known-good model densely (full-width wire) to every alive
          available device, trading bytes for consistency.
    accounting:
        ``CommVolumeAccountant`` memory mode: ``"exact"`` (default)
        keeps every per-transfer record, ``"aggregate"`` keeps only the
        running per-kind/per-src/per-dst totals — same ``snapshot()``
        and invariant checks, bounded memory for long or
        population-scale runs.
    aggregation:
        Federation mode of the round loop:

        * ``"sync"`` (default) — the classic full-window barrier; bitwise
          identical to the pre-event-driven trainer on fixed seeds;
        * ``"buffered_async"`` — FedBuff-style: each round folds the
          first ``async_buffer`` burst *completions* in arrival order,
          staleness-discounting each contribution by
          ``(1 + τ)^(−staleness_exponent)``; stragglers keep computing
          across round boundaries and fold when they arrive.
    async_buffer:
        Buffer size K of ``"buffered_async"`` — how many completions an
        aggregation waits for.  ``None`` (default) uses ``num_selected``.
    staleness_exponent:
        Exponent a of the staleness discount ``(1 + τ)^(−a)`` applied to
        buffered-async contributions (τ = aggregation epochs behind).
        ``0`` disables the discount (uniform mean).
    """

    tsync: int = 1
    num_selected: int = 2
    warmup_epochs: int = 1
    warmup_lr: float = 1e-3
    smoothing_alpha: float = 0.5
    selection_sigma: float = 1.0
    selection: str = "gaussian_quartile"
    unselected_mix_weight: float = 0.5
    adapt_local_steps: bool = True
    sync_failure_policy: str = "continue"
    accounting: str = "exact"
    aggregation: str = "sync"
    async_buffer: "int | None" = None
    staleness_exponent: float = 0.5

    def __post_init__(self):
        if self.tsync < 1:
            raise ValueError(f"tsync must be >= 1, got {self.tsync}")
        if self.num_selected < 1:
            raise ValueError(f"num_selected must be >= 1, got {self.num_selected}")
        if not 0.0 < self.smoothing_alpha < 1.0:
            raise ValueError(
                f"smoothing_alpha must be in (0, 1), got {self.smoothing_alpha}"
            )
        if not self.selection_sigma > 0:
            raise ValueError(
                f"selection_sigma must be positive, got {self.selection_sigma}"
            )
        if not 0.0 <= self.unselected_mix_weight <= 1.0:
            raise ValueError(
                "unselected_mix_weight must be in [0, 1], "
                f"got {self.unselected_mix_weight}"
            )
        if self.warmup_epochs < 0:
            raise ValueError(
                f"warmup_epochs must be non-negative, got {self.warmup_epochs}"
            )
        if self.selection not in SELECTION_POLICIES:
            raise ValueError(
                f"selection must be one of {'/'.join(SELECTION_POLICIES)}, "
                f"got {self.selection!r}"
            )
        if self.sync_failure_policy not in SYNC_FAILURE_POLICIES:
            raise ValueError(
                "sync_failure_policy must be one of "
                f"{'/'.join(SYNC_FAILURE_POLICIES)}, "
                f"got {self.sync_failure_policy!r}"
            )
        from repro.comm.volume import check_accounting
        from repro.sim.rounds import check_federation

        check_accounting(self.accounting)
        check_federation(
            self.aggregation, self.async_buffer, self.staleness_exponent
        )

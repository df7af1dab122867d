"""The simulated-machine runtime: MPF on a modelled Balance 21000.

This is the primary experimental substrate of the reproduction (see
DESIGN.md §2): programs run as coroutines on the deterministic
discrete-event engine, MPF effects are priced by the calibrated
:class:`~repro.machine.cpu.BalanceTiming`, and ``RunResult.elapsed`` is
*simulated* seconds — directly comparable to the paper's measured times.
"""

from __future__ import annotations

from typing import Sequence

from ..core.costmodel import Costs, DEFAULT_COSTS
from ..core.layout import HDR, MPFConfig, SegmentLayout, format_region
from ..core.ops import MPFView
from ..core.region import SharedRegion
from ..machine.balance import BALANCE_21000, MachineConfig
from ..machine.cpu import BalanceTiming
from ..machine.engine import Engine
from ..machine.stats import collect_report
from .base import Env, RunResult, Runtime, Worker, snapshot_header

__all__ = ["SimRuntime"]


class SimRuntime(Runtime):
    """Run MPF programs on the simulated Sequent Balance 21000."""

    kind = "sim"

    #: ``python -m repro.bench profile --top`` puts a recorder here for
    #: the length of a figure (``None`` otherwise) to hear every
    #: simulation the figure runs: directly where a run has no recorder
    #: of its own, as a fold of the run's recording where it has.
    profile = None

    def __init__(
        self,
        machine: MachineConfig = BALANCE_21000,
        until: float | None = None,
        recorder=None,
    ) -> None:
        self.machine = machine
        self._until = until
        #: Optional :class:`repro.obs.Recorder` fed simulated-time
        #: metrics (lock wait/hold, per-label charges) during runs.
        self.recorder = recorder
        #: The engine and segment of the latest :meth:`run`, set before
        #: its first event: after a deadlock or a worker exception they
        #: hold the state to inspect.
        self.last_engine: Engine | None = None
        self.last_view: MPFView | None = None

    def run(
        self,
        workers: Sequence[Worker],
        cfg: MPFConfig | None = None,
        costs: Costs = DEFAULT_COSTS,
        names: Sequence[str] | None = None,
    ) -> RunResult:
        nprocs = len(workers)
        cfg = self.default_config(nprocs, cfg)
        names = self.process_names(nprocs, names)

        region = SharedRegion(bytearray(SegmentLayout(cfg).total_size))
        layout = format_region(region, cfg)
        view = MPFView(region, layout, costs)
        view.fuse = True  # the engine drives it: poll waits run in-engine

        timing = BalanceTiming(self.machine, costs)
        timing.vm.set_demand_source(lambda: HDR.get(region, "live_bytes"))
        stride = layout.blk_stride
        timing.cache.set_demand_source(
            lambda: HDR.get(region, "live_blocks") * stride
        )
        # The engine has one observer: this run's recorder, else the
        # profile's; with both, a child of this run's, folded into both.
        own, profile = self.recorder, self.profile
        both = own is not None and profile is not None
        rec = own.child() if both else own if own is not None else profile
        engine = Engine(
            n_locks=cfg.n_locks,
            n_channels=cfg.n_channels,
            timing=timing,
            n_cpus=self.machine.n_cpus,
            recorder=rec,
        )
        self.last_engine = engine
        self.last_view = view
        clock = lambda: engine.now  # noqa: E731 - tiny closure
        if rec is not None:
            rec.attach(view, clock, "sim")
        for rank, (name, worker) in enumerate(zip(names, workers)):
            env = Env(view, rank, nprocs, clock)
            engine.spawn(name, worker(env))
        try:
            elapsed = engine.run(until=self._until)
        finally:
            if rec is not None:
                # Surface the engine's event-queue counters on the
                # recorder so the Prometheus exposition and the bench
                # tools report them without holding the engine itself —
                # also for a run that ended in an error.
                m = rec.machine
                m["runs"] = m.get("runs", 0) + 1
                for k in ("events", "heap_pushes", "heap_pops"):
                    m[k] = m.get(k, 0) + getattr(engine.stats, k)
                if both:
                    snap = rec.snapshot()
                    own.merge(snap)
                    profile.merge(snap)
        return RunResult(
            results=engine.results(),
            elapsed=elapsed,
            kind=self.kind,
            header=snapshot_header(view),
            report=collect_report(engine, timing),
        )

"""Processor timing model: composing CPU, bus and VM into a price.

:class:`BalanceTiming` is the :class:`~repro.machine.engine.TimingModel`
of the simulated Balance 21000.  It converts the machine-neutral
:class:`~repro.core.work.Work` units emitted by MPF primitives and
application code into simulated seconds:

* ``instrs``  × instruction time (1 µs: 10 cycles at 10 MHz),
* ``flops``   × floating point time (software-assisted FPU),
* ``copy_bytes`` adds the raw bus transfer time (tiny at 80 MB/s, kept
  for completeness) and marks the charge as a copy phase so the bus model
  can apply its contention slowdown,
* ``page_bytes`` is surcharged by the paging model when the live message
  footprint exceeds the resident budget,
* the whole charge stretches when more processes are runnable than
  processors exist (coarse multiplexing; the paper never oversubscribed).
"""

from __future__ import annotations

from ..core.costmodel import Costs, DEFAULT_COSTS
from ..core.layout import HDR
from ..core.work import Work
from .balance import MachineConfig
from .bus import BusModel
from .cache import CacheModel
from .vm import VmModel

__all__ = ["BalanceTiming", "SegmentWord"]


class SegmentWord:
    """A demand source that reads the u32 word at byte ``off`` of a
    segment, times ``scale``: a callable, as the models expect, that the
    engine's C loop evaluates without calling it
    (:attr:`BalanceTiming.closed_form`)."""

    __slots__ = ("region", "off", "scale")

    def __init__(self, region, off: int, scale: int = 1) -> None:
        self.region = region
        self.off = off
        self.scale = scale

    def __call__(self) -> int:
        return self.region.u32(self.off) * self.scale


class BalanceTiming:
    """Prices :class:`Work` on a :class:`MachineConfig`."""

    def __init__(self, config: MachineConfig, costs: Costs = DEFAULT_COSTS) -> None:
        self.config = config
        self.costs = costs
        self.bus = BusModel(config.bus_contention_alpha)
        self.vm = VmModel(
            resident_bytes=config.resident_bytes,
            page_bytes=config.page_bytes,
            fault_seconds=config.page_fault_seconds,
        )
        self.cache = CacheModel(
            cache_bytes=config.cache_bytes,
            miss_seconds=config.cache_miss_seconds,
        )
        self._t_instr = config.instr_seconds
        self._t_flop = config.flop_seconds
        self._bus_byte = 1.0 / config.bus_bytes_per_second
        self._n_cpus = config.n_cpus
        # Contract with Engine.run's inline pricing (machine/engine.py):
        # for work with no copy_bytes/blocks/page_bytes, price() is exactly
        #   dt = instrs*t_instr [+ flops*t_flop] [* running/n_cpus]
        # — stateless, so the engine may inline it from these constants
        # bit-for-bit.  Timing models without this attribute (custom
        # test models) simply take the per-call price() path.
        self.analytic_charge = (self._t_instr, self._t_flop, self._n_cpus)

    def set_demand(self, region, stride: int) -> None:
        """Wire the models' demand to the segment header of ``region``:
        the cache sees ``live_blocks`` times ``stride`` (the block
        stride) bytes, the VM ``live_bytes``."""
        self.cache.set_demand_source(
            SegmentWord(region, HDR.u32["live_blocks"], stride))
        self.vm.set_demand_source(SegmentWord(region, HDR.u32["live_bytes"]))

    @property
    def closed_form(self):
        """What the engine's C loop needs to evaluate :meth:`price`,
        ``copy_started`` / ``copy_finished`` and :meth:`wake_cost`
        itself, operation for operation, beside :attr:`analytic_charge`:
        ``(bus byte time, wake instructions, bus, cache, vm, segment
        bytes, live_blocks offset, stride, live_bytes offset)``.  The
        loop reads α, the cache size and miss time, and the VM's
        resident bytes, page size and fault time off the three models
        once per run, and their statistics (copies, peak, stalls, faults,
        ``_carry``) as it goes, writing each back where the model would.
        ``None`` unless both demand sources are :class:`SegmentWord` s
        of one segment (:meth:`set_demand`): any other source is Python
        the loop would have to call, so it calls :meth:`price`."""
        cd, vd = self.cache._demand, self.vm._demand
        if (type(cd) is not SegmentWord or type(vd) is not SegmentWord
                or cd.region is not vd.region or vd.scale != 1):
            return None
        return (self._bus_byte, self.costs.wake, self.bus, self.cache,
                self.vm, cd.region._mv, cd.off, cd.scale, vd.off)

    # -- TimingModel interface ------------------------------------------------

    def price(self, work: Work, running: int) -> float:
        """Simulated seconds for ``work`` with ``running`` busy processes.

        The common case — instruction-only work from an uncontended,
        un-oversubscribed primitive — takes the two-line fast path; the
        model terms are only evaluated for work that carries their
        inputs, and adding a zero term is a float identity, so the fast
        path prices bit-for-bit identically to the full expression.
        """
        dt = work.instrs * self._t_instr
        if work.flops:
            dt += work.flops * self._t_flop
        if work.copy_bytes:
            dt += work.copy_bytes * self._bus_byte
            dt *= self.bus.slowdown()
        if running > self._n_cpus:
            dt *= running / self._n_cpus
        if work.blocks:
            dt += self.cache.penalty(work.blocks)
        if work.page_bytes:
            dt += self.vm.touch(work.page_bytes)
        return dt

    def acquire_cost(self) -> float:
        return self.costs.lock_acquire * self._t_instr

    def release_cost(self) -> float:
        return self.costs.lock_release * self._t_instr

    def wake_cost(self, n_waiters: int) -> float:
        return (self.costs.wake + 20 * n_waiters) * self._t_instr

    def copy_started(self) -> None:
        self.bus.started()

    def copy_finished(self) -> None:
        self.bus.finished()

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
from ..core.work import Work
from .balance import MachineConfig
from .bus import BusModel
from .cache import CacheModel
from .vm import VmModel

__all__ = ["BalanceTiming"]


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

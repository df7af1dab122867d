"""Public testing utilities for MPF-based code.

Downstream users writing unit tests against MPF face the same problem
this repository's own suite does: the primitives are effect generators,
and a test usually wants to execute one logical thread of them without
standing up a runtime.  :class:`DirectRunner` interprets an op generator
single-threadedly, *asserting the locking discipline as it goes* (locks
balance, ops never raise while holding a lock) and turning a would-block
``WaitOn`` into :class:`BlockedError` so blocking behaviour is a testable
outcome rather than a hang.
"""

from __future__ import annotations

from .core.costmodel import DEFAULT_COSTS, Costs
from .core.effects import Acquire, Charge, ChargeMany, Release, WaitOn, Wake
from .core.effects import unfold
from .core.layout import MPFConfig, SegmentLayout, format_region
from .core.ops import MPFView
from .core.region import SharedRegion
from .core.work import Work

__all__ = ["BlockedError", "DisciplineError", "DirectRunner", "make_view"]


class BlockedError(Exception):
    """Raised by :class:`DirectRunner` when an op would block."""


class DisciplineError(AssertionError):
    """An op violated the locking discipline (runner-detected)."""


class DirectRunner:
    """Single-threaded interpreter for MPF op generators.

    Interprets lock effects as bookkeeping (asserting they balance),
    accumulates charged :class:`~repro.core.work.Work`, records wakes,
    and raises :class:`BlockedError` on ``WaitOn``.  A
    :class:`~repro.core.effects.FusedSection` runs step by step, each
    step checked as the effect it stands for
    (:func:`~repro.core.effects.unfold`).
    """

    def __init__(self, view: MPFView) -> None:
        self.view = view
        #: Locks currently held (must be empty when an op finishes).
        self.held: list[int] = []
        #: Every Work charged, in order.
        self.charged: list[Work] = []
        #: Channels woken, in order.
        self.wakes: list[int] = []

    def run(self, gen):
        """Drive ``gen`` to completion; returns its value.

        Raises :class:`BlockedError` if the op waits on a channel, and
        ``AssertionError`` if the op violates the locking discipline.
        """
        gen = unfold(gen)
        try:
            value = None
            while True:
                effect = gen.send(value)
                value = None
                if isinstance(effect, Acquire):
                    if effect.lock_id in self.held:
                        raise DisciplineError(
                            f"self-deadlock on lock {effect.lock_id}"
                        )
                    self.held.append(effect.lock_id)
                elif isinstance(effect, Release):
                    if effect.lock_id not in self.held:
                        raise DisciplineError(
                            f"released un-held lock {effect.lock_id}"
                        )
                    self.held.remove(effect.lock_id)
                elif isinstance(effect, Charge):
                    self.charged.append(effect.work)
                elif isinstance(effect, ChargeMany):
                    self.charged.extend(effect.works)
                elif isinstance(effect, WaitOn):
                    # WaitOn releases its lock before sleeping; mirror
                    # that so the runner can keep executing other ops
                    # after reporting the block.
                    if effect.lock_id not in self.held:
                        raise DisciplineError(
                            f"WaitOn without holding lock {effect.lock_id}"
                        )
                    self.held.remove(effect.lock_id)
                    raise BlockedError(f"blocked on channel {effect.chan}")
                elif isinstance(effect, Wake):
                    self.wakes.append(effect.chan)
                else:
                    raise DisciplineError(f"unknown effect {effect!r}")
        except StopIteration as stop:
            if self.held:
                raise DisciplineError(
                    f"op finished holding locks {self.held}"
                ) from None
            return stop.value
        except (BlockedError, DisciplineError):
            raise
        except BaseException:
            # Ops must release their locks before raising; verify.
            if self.held:
                raise DisciplineError(
                    f"op raised while holding locks {self.held}"
                ) from None
            raise

    def total_instrs(self) -> int:
        """Sum of instruction budgets charged so far."""
        return sum(w.instrs for w in self.charged)

    def total_copy_bytes(self) -> int:
        """Sum of payload bytes charged as copies so far."""
        return sum(w.copy_bytes for w in self.charged)


def make_view(costs: Costs = DEFAULT_COSTS, **overrides) -> MPFView:
    """A freshly formatted small in-memory segment.

    Keyword arguments override :class:`~repro.core.layout.MPFConfig`
    fields; defaults are sized for unit tests (8 circuits, 8 processes,
    64 messages, 64 KiB of blocks).
    """
    defaults = dict(max_lnvcs=8, max_processes=8, max_messages=64,
                    message_pool_bytes=1 << 16)
    defaults.update(overrides)
    cfg = MPFConfig(**defaults)
    region = SharedRegion(bytearray(SegmentLayout(cfg).total_size))
    layout = format_region(region, cfg)
    return MPFView(region, layout, costs)

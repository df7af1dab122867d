"""Unit tests for the bus, VM, CPU timing and machine-config models."""

from dataclasses import fields, replace

import pytest

from repro.core.costmodel import Costs, DEFAULT_COSTS
from repro.core.work import Work
from repro.machine.balance import BALANCE_21000, MachineConfig
from repro.machine.bus import BusModel
from repro.machine.cpu import BalanceTiming
from repro.machine.vm import VmModel


class TestBus:
    def test_idle_bus_no_slowdown(self):
        bus = BusModel(0.05)
        assert bus.slowdown() == 1.0

    def test_slowdown_grows_with_active_copiers(self):
        bus = BusModel(0.05)
        bus.started()
        bus.started()
        assert bus.slowdown() == pytest.approx(1.10)

    def test_finish_reduces_active(self):
        bus = BusModel(0.05)
        bus.started()
        bus.finished()
        assert bus.slowdown() == 1.0

    def test_peak_and_total_tracked(self):
        bus = BusModel(0.0)
        bus.started()
        bus.started()
        bus.finished()
        bus.started()
        assert bus.peak == 2
        assert bus.total_copies == 3

    def test_unbalanced_finish_rejected(self):
        bus = BusModel(0.0)
        with pytest.raises(RuntimeError):
            bus.finished()

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="bus_contention_alpha"):
            MachineConfig(bus_contention_alpha=-0.1)


class TestVm:
    def make(self, resident=1000, fault=0.01):
        return VmModel(resident_bytes=resident, page_bytes=100,
                       fault_seconds=fault)

    def test_under_budget_never_faults(self):
        vm = self.make()
        vm.set_demand_source(lambda: 500)
        assert vm.touch(10_000) == 0.0
        assert vm.faults == 0

    def test_over_budget_faults_proportionally(self):
        vm = self.make(resident=1000)
        vm.set_demand_source(lambda: 2000)  # fraction = 0.5
        dt = vm.touch(1000)  # 10 pages -> 5 faults
        assert dt == pytest.approx(5 * 0.01)
        assert vm.faults == 5

    def test_fraction_clamped_at_one(self):
        vm = self.make(resident=0)
        vm.set_demand_source(lambda: 10**9)
        assert vm.fault_fraction() == pytest.approx(1.0)

    def test_fractional_faults_carry_over(self):
        vm = self.make(resident=1000)
        vm.set_demand_source(lambda: 1250)  # fraction = 0.2
        total = sum(vm.touch(100) for _ in range(10))  # 1 page each
        assert total == pytest.approx(2 * 0.01)  # 10 pages * 0.2

    def test_disabled_model_is_free(self):
        # A free fault turns the model off: no demand is even read.
        vm = self.make(fault=0)
        vm.set_demand_source(lambda: 1 / 0)
        assert vm.touch(10**6) == 0.0
        assert vm.faults == 0

    def test_zero_touch_is_free(self):
        vm = self.make()
        assert vm.touch(0) == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="resident_bytes"):
            MachineConfig(resident_bytes=-1)
        with pytest.raises(ValueError, match="page_bytes"):
            MachineConfig(page_bytes=0)


class TestMachineConfig:
    def test_balance_preset_matches_paper(self):
        # Paper §4 hardware description.
        # (16 MB of memory binds nothing and is not modelled.)
        assert BALANCE_21000.n_cpus == 20
        assert BALANCE_21000.bus_bytes_per_second == 80e6
        assert BALANCE_21000.cache_bytes == 8 << 10
        assert BALANCE_21000.page_bytes == 512

    def test_instr_seconds(self):
        # 10 cycles at the published 10 MHz, folded into one field: the
        # literal is the quotient bit for bit, so every archive holds.
        assert BALANCE_21000.instr_seconds == 10.0 / 10e6

    def test_without_paging(self):
        t = BalanceTiming(replace(BALANCE_21000, page_fault_seconds=0))
        t.vm.set_demand_source(lambda: 10**9)
        assert t.price(Work(page_bytes=1 << 20), running=1) == 0.0
        assert t.vm.faults == 0


class TestBalanceTiming:
    def make(self, **kw):
        return BalanceTiming(MachineConfig(**kw), DEFAULT_COSTS)

    def test_instruction_pricing(self):
        t = self.make()
        assert t.price(Work(instrs=1000), running=1) == pytest.approx(1e-3)

    def test_flop_pricing(self):
        t = self.make()
        assert t.price(Work(flops=100), running=1) == pytest.approx(
            100 * MachineConfig().flop_seconds
        )

    def test_oversubscription_stretches(self):
        t = self.make(n_cpus=2)
        base = t.price(Work(instrs=100), running=2)
        stretched = t.price(Work(instrs=100), running=6)
        assert stretched == pytest.approx(3 * base)

    def test_copy_includes_bus_transfer_and_contention(self):
        t = self.make(bus_contention_alpha=0.5)
        solo = t.price(Work(instrs=100, copy_bytes=1000), running=1)
        t.copy_started()
        contended = t.price(Work(instrs=100, copy_bytes=1000), running=1)
        assert contended == pytest.approx(1.5 * solo)

    def test_paging_surcharge_added(self):
        t = self.make(resident_bytes=0, page_bytes=512,
                      page_fault_seconds=1.0)
        t.vm.set_demand_source(lambda: 10**9)  # fault fraction exactly 1
        dt = t.price(Work(page_bytes=1024), running=1)
        assert dt == pytest.approx(2.0)  # two whole pages fault

    def test_lock_costs_from_cost_model(self):
        t = self.make()
        assert t.acquire_cost() == pytest.approx(
            DEFAULT_COSTS.lock_acquire * 1e-6
        )
        assert t.release_cost() == pytest.approx(
            DEFAULT_COSTS.lock_release * 1e-6
        )

    def test_wake_cost_scales_with_waiters(self):
        t = self.make()
        assert t.wake_cost(10) > t.wake_cost(0)


class TestValidation:
    """Out-of-range values fail at construction, naming the field, so
    none reaches a run: ``n_cpus=0`` would divide by zero in ``price``,
    and a negative budget or clock would run to the end and then break
    the throughput window."""

    BAD_MACHINE = {
        "n_cpus": (0, -3, 2.0),
        "instr_seconds": (0, -1e-6, float("nan")),
        "bus_bytes_per_second": (0, -1.0),
        "cache_bytes": (0, 8.5),
        "page_bytes": (0, -512),
        "flop_seconds": (-1e-6, float("nan")),
        "bus_contention_alpha": (-0.1,),
        "resident_bytes": (-1, 1.5),
        "page_fault_seconds": (-1.0,),
        "cache_miss_seconds": (-1.0, "4e-6"),
    }

    def test_every_machine_field_has_bad_values(self):
        assert self.BAD_MACHINE.keys() == {f.name for f in fields(MachineConfig)}

    @pytest.mark.parametrize("name", [f.name for f in fields(MachineConfig)])
    def test_machine_field_rejected(self, name):
        for bad in self.BAD_MACHINE[name]:
            with pytest.raises(ValueError, match=rf"MachineConfig\.{name} "):
                replace(BALANCE_21000, **{name: bad})

    @pytest.mark.parametrize("name", [f.name for f in fields(Costs)])
    def test_costs_field_rejected(self, name):
        for bad in (-1, 1.5, True, None):
            with pytest.raises(ValueError, match=rf"Costs\.{name} "):
                replace(DEFAULT_COSTS, **{name: bad})
        assert getattr(replace(DEFAULT_COSTS, **{name: 0}), name) == 0

    def test_zero_cost_terms_are_valid(self):
        MachineConfig(flop_seconds=0, bus_contention_alpha=0,
                      resident_bytes=0, page_fault_seconds=0,
                      cache_miss_seconds=0)

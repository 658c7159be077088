"""Integration tests: the three mitigation schemes running real FFTs
under fault injection — the executable heart of Section V."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.mitigation.base as base
from repro.core.access import (
    ACCESS_CELL_BASED_40NM,
    ACCESS_CELL_BASED_40NM_TYPICAL,
)
from repro.mitigation import (
    SCHEME_RUNNERS,
    DectedRunner,
    NoMitigationRunner,
    OceanRunner,
    SecdedRunner,
    optimize_checkpoint_granularity,
)
from repro.workloads.fft import build_fft_program

N = 64
FREQ = 290e3

#: Every runner class: the schemes the CLI and server accept, and DECTED.
RUNNERS = [*SCHEME_RUNNERS.values(), DectedRunner]


@pytest.fixture(scope="module")
def program():
    return build_fft_program(N)


@pytest.fixture(scope="module")
def golden(program):
    return program.expected_output(list(program.data_words[:N]))


class TestCleanOperation:
    """Above the access onset every scheme completes correctly."""

    @pytest.mark.parametrize(
        "runner_cls", [NoMitigationRunner, SecdedRunner, OceanRunner]
    )
    def test_correct_at_safe_voltage(self, runner_cls, program, golden):
        runner = runner_cls(ACCESS_CELL_BASED_40NM, seed=1)
        outcome = runner.run(program.workload, vdd=0.60, frequency=FREQ)
        assert outcome.completed
        assert outcome.output_matches(golden)
        assert sum(outcome.sim.injected_bits.values()) == 0

    def test_reports_have_expected_components(self, program):
        none = NoMitigationRunner(ACCESS_CELL_BASED_40NM).run(
            program.workload, 0.60, FREQ
        )
        ocean = OceanRunner(ACCESS_CELL_BASED_40NM).run(
            program.workload, 0.60, FREQ
        )
        assert set(none.report.as_dict()) == {"core", "IM", "SP", "total"}
        assert set(ocean.report.as_dict()) == {
            "core", "IM", "SP", "PM", "total"
        }


class TestSchemeDeclaration:
    """A scheme declares its platform once, as ``memories``: the built
    platform, the energy model and the FFT bound all read it."""

    @staticmethod
    def _built(platform):
        return [
            (memory, port)
            for memory, port in (
                (platform.im, platform.im_port),
                (platform.sp, platform.sp_port),
                (platform.pm, platform.pm_port),
            )
            if memory is not None
        ]

    @pytest.mark.parametrize("runner_cls", RUNNERS, ids=lambda c: c.name)
    def test_energy_model_prices_each_built_memory_at_its_width(
        self, runner_cls, program, monkeypatch
    ):
        priced = []
        energy_model_cls = base.PlatformEnergyModel

        def energy_model(specs, **kwargs):
            priced.extend(specs)
            return energy_model_cls(specs, **kwargs)

        monkeypatch.setattr(base, "PlatformEnergyModel", energy_model)
        runner = runner_cls(ACCESS_CELL_BASED_40NM, seed=3)
        outcome = runner.run(program.workload, vdd=0.44, frequency=FREQ)
        built = self._built(runner.last_platform)
        assert [c.name for c in outcome.report.components] == [
            "core", *(memory.name for memory, _ in built)
        ]
        assert [memory.name for memory, _ in built] == [
            declared.name for declared in runner_cls.memories
        ]
        assert len(priced) == len(built)
        for spec, (memory, port) in zip(priced, built):
            code_bits = 32 if port.codec is None else port.codec.code_bits
            assert spec.name == memory.name
            assert spec.words == memory.words
            assert spec.stored_bits == memory.width == code_bits
        sp = runner.last_platform.sp
        assert runner_cls.reliability.word_bits == sp.width

    @pytest.mark.parametrize("runner_cls", RUNNERS, ids=lambda c: c.name)
    def test_fault_streams_are_salted_in_declaration_order(self, runner_cls):
        platform = runner_cls(ACCESS_CELL_BASED_40NM, seed=5).build_platform(
            0.44
        )
        for salt, (memory, _) in enumerate(self._built(platform), start=1):
            fresh = np.random.default_rng((5, salt))
            assert (
                memory.faults.rng.bit_generator.state
                == fresh.bit_generator.state
            )

    @pytest.mark.parametrize("runner_cls", RUNNERS, ids=lambda c: c.name)
    def test_no_scheme_overrides_the_builder(self, runner_cls):
        """The benchmark's tracer times ``build_platform`` on every class
        that defines it; an override calling ``super()`` counts twice."""
        assert "build_platform" not in vars(runner_cls)

    def test_data_words_bound_the_workload(self):
        """Data fills the scratchpad, and OCEAN checkpoints all of it
        into its smaller protected buffer."""
        assert {
            runner_cls.name: runner_cls.data_words() for runner_cls in RUNNERS
        } == {"none": 2048, "SECDED": 2048, "OCEAN": 1024, "DECTED": 2048}

    def test_an_unknown_macro_style_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown macro_style 'foo'"):
            SecdedRunner(ACCESS_CELL_BASED_40NM, macro_style="foo")


class TestFaultedOperation:
    def test_no_mitigation_corrupts_silently(self, program, golden):
        """At 0.40 V the unprotected run finishes but the output is
        wrong — the silent-corruption failure mode."""
        corrupted = 0
        for seed in range(6):
            runner = NoMitigationRunner(ACCESS_CELL_BASED_40NM, seed=seed)
            outcome = runner.run(program.workload, vdd=0.40, frequency=FREQ)
            if not outcome.output_matches(golden):
                corrupted += 1
        assert corrupted >= 4

    def test_secded_corrects_through_faults(self, program, golden):
        for seed in range(4):
            runner = SecdedRunner(ACCESS_CELL_BASED_40NM, seed=seed)
            outcome = runner.run(program.workload, vdd=0.40, frequency=FREQ)
            assert outcome.output_matches(golden)
            assert outcome.sim.corrected_words >= 1

    def test_ocean_rolls_back_through_faults(self, program, golden):
        rollbacks = 0
        detected = 0
        for seed in range(6):
            runner = OceanRunner(ACCESS_CELL_BASED_40NM, seed=seed)
            outcome = runner.run(program.workload, vdd=0.38, frequency=FREQ)
            assert outcome.output_matches(golden)
            rollbacks += outcome.sim.rollbacks
            detected += outcome.sim.detected_words
        assert detected >= 1
        assert rollbacks >= 1

    def test_ocean_survives_deeper_voltage_than_secded_semantics(
        self, program, golden
    ):
        """At 0.36 V (just above the typical-part onset) OCEAN still
        produces correct output under its worst-case error rate."""
        runner = OceanRunner(ACCESS_CELL_BASED_40NM, seed=2)
        outcome = runner.run(program.workload, vdd=0.36, frequency=FREQ)
        assert outcome.output_matches(golden)

    def test_ocean_overhead_cycles_accounted(self, program):
        runner = OceanRunner(ACCESS_CELL_BASED_40NM, seed=0)
        outcome = runner.run(program.workload, vdd=0.60, frequency=FREQ)
        # At least one checkpoint per phase: copies cost modelled cycles.
        assert outcome.sim.overhead_cycles > 0
        assert outcome.sim.total_cycles > outcome.sim.cycles

    def test_checkpoint_interval_reduces_pm_traffic(self, program):
        every = OceanRunner(
            ACCESS_CELL_BASED_40NM, seed=0, checkpoint_interval=1
        ).run(program.workload, 0.60, FREQ)
        sparse = OceanRunner(
            ACCESS_CELL_BASED_40NM, seed=0, checkpoint_interval=3
        ).run(program.workload, 0.60, FREQ)
        assert (
            sparse.sim.access_counts["PM"][1]
            < every.sim.access_counts["PM"][1]
        )

    def test_seeds_reproduce(self, program):
        a = NoMitigationRunner(ACCESS_CELL_BASED_40NM, seed=9).run(
            program.workload, 0.40, FREQ
        )
        b = NoMitigationRunner(ACCESS_CELL_BASED_40NM, seed=9).run(
            program.workload, 0.40, FREQ
        )
        assert a.output == b.output
        assert a.sim.injected_bits == b.sim.injected_bits


class TestOperatingPointPowerOrdering:
    """The paper's central claim, executed: each scheme at its own
    Table 2 voltage; OCEAN < ECC < no-mitigation in total power."""

    def test_power_ordering_at_table2_voltages(self, program, golden):
        outcomes = {}
        for runner_cls, vdd in (
            (NoMitigationRunner, 0.55),
            (SecdedRunner, 0.44),
            (OceanRunner, 0.33),
        ):
            runner = runner_cls(ACCESS_CELL_BASED_40NM_TYPICAL, seed=3)
            outcomes[runner_cls.__name__] = runner.run(
                program.workload, vdd=vdd, frequency=FREQ
            )
        for outcome in outcomes.values():
            assert outcome.output_matches(golden)
        p_none = outcomes["NoMitigationRunner"].power_w
        p_ecc = outcomes["SecdedRunner"].power_w
        p_ocean = outcomes["OceanRunner"].power_w
        assert p_ocean < p_ecc < p_none

    def test_equal_voltage_mitigation_costs_power(self, program):
        """At the same supply, protection is pure overhead — the gain
        only appears because it unlocks lower voltage."""
        vdd = 0.55
        p_none = NoMitigationRunner(
            ACCESS_CELL_BASED_40NM_TYPICAL, seed=0
        ).run(program.workload, vdd, FREQ).power_w
        p_ocean = OceanRunner(
            ACCESS_CELL_BASED_40NM_TYPICAL, seed=0
        ).run(program.workload, vdd, FREQ).power_w
        assert p_ocean > p_none


class TestCheckpointOptimizer:
    def test_no_errors_prefers_sparsest_checkpointing(self):
        plan = optimize_checkpoint_granularity(
            n_phases=10, p_phase=0.0, e_phase=1.0, e_checkpoint=0.5
        )
        assert plan.interval == 10
        assert plan.expected_rollbacks == 0.0

    def test_high_error_rate_prefers_dense_checkpointing(self):
        plan = optimize_checkpoint_granularity(
            n_phases=10, p_phase=0.4, e_phase=1.0, e_checkpoint=0.05
        )
        assert plan.interval == 1

    def test_interior_optimum(self):
        plan = optimize_checkpoint_granularity(
            n_phases=20, p_phase=0.05, e_phase=1.0, e_checkpoint=1.0
        )
        assert 1 < plan.interval < 20

    def test_expected_energy_is_minimal_among_integers(self):
        from repro.mitigation.ocean import _expected_energy

        args = dict(
            n_phases=16, p_phase=0.08, e_phase=1.0,
            e_checkpoint=0.7, e_restore=0.7,
        )
        plan = optimize_checkpoint_granularity(
            args["n_phases"], args["p_phase"], args["e_phase"],
            args["e_checkpoint"], args["e_restore"],
        )
        energies = {
            k: _expected_energy(float(k), **args)
            for k in range(1, 17)
        }
        assert plan.expected_energy == pytest.approx(min(energies.values()))

    @settings(max_examples=200, deadline=None)
    @given(
        n_phases=st.integers(1, 64),
        p_phase=st.floats(0.0, 0.9, exclude_max=True),
        e_phase=st.floats(1e-6, 1e3),
        e_checkpoint=st.floats(1e-6, 1e3),
        e_restore=st.one_of(st.none(), st.floats(1e-6, 1e3)),
    )
    def test_plan_is_the_smallest_argmin_over_every_interval(
        self, n_phases, p_phase, e_phase, e_checkpoint, e_restore
    ):
        from repro.mitigation.ocean import _expected_energy

        restore = e_checkpoint if e_restore is None else e_restore
        energies = [
            _expected_energy(
                k, n_phases, p_phase, e_phase, e_checkpoint, restore
            )
            for k in range(1, n_phases + 1)
        ]
        best = energies.index(min(energies)) + 1
        plan = optimize_checkpoint_granularity(
            n_phases, p_phase, e_phase, e_checkpoint, e_restore
        )
        assert plan.interval == best
        assert plan.expected_energy == energies[best - 1]
        assert plan.expected_rollbacks == (n_phases / best) * (
            1.0 / (1.0 - p_phase) ** best - 1.0
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            optimize_checkpoint_granularity(0, 0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            optimize_checkpoint_granularity(5, 0.1, 0.0, 1.0)
        with pytest.raises(ValueError):
            optimize_checkpoint_granularity(5, 1.0, 1.0, 1.0)

    def test_scheme_reliability_exposed(self):
        assert NoMitigationRunner.reliability.fail_threshold == 1
        assert SecdedRunner.reliability.fail_threshold == 3
        assert OceanRunner.reliability.fail_threshold == 5


class TestOceanExitPaths:
    """Pin OCEAN's unhappy exits — livelock, unrepairable instruction
    storage, and an unrecoverable protected buffer.

    All at 0.60 V (above the access onset, so no random faults): every
    fault below is queued deterministically with ``force_next``, which
    makes each exit path reachable on purpose instead of by seed
    lottery.
    """

    def _prepared(self, program):
        """Runner + built platform with the workload loaded, faults
        not yet queued — mirrors the front half of SchemeRunner.run."""
        workload = program.workload
        runner = OceanRunner(ACCESS_CELL_BASED_40NM, seed=7)
        platform = runner.build_platform(0.60)
        runner.last_platform = platform
        platform.load_program(list(workload.program_words))
        platform.load_data(list(workload.data_words), workload.data_base)
        return runner, platform, workload

    def test_initial_checkpoint_livelock(self, program):
        """A chunk that can never be read cleanly exhausts the retry
        budget of the very first checkpoint."""
        from repro.mitigation.ocean import MAX_ROLLBACKS_PER_SEGMENT

        runner, platform, workload = self._prepared(program)
        # Every attempt's first SP read trips the detect-only code.
        for _ in range(MAX_ROLLBACKS_PER_SEGMENT):
            platform.sp.faults.force_next(1)
        completed, failure, rollbacks, overhead = runner.execute(
            platform, workload
        )
        assert not completed
        assert failure == "livelock"
        assert rollbacks == 0  # never got past the initial checkpoint

    def test_mid_run_livelock(self, program):
        """A segment that re-faults after every rollback livelocks."""
        from repro.mitigation.ocean import MAX_ROLLBACKS_PER_SEGMENT

        runner, platform, workload = self._prepared(program)
        chunk_words = len(workload.data_words)
        faults = platform.sp.faults
        # Initial checkpoint reads the chunk cleanly.
        for _ in range(chunk_words):
            faults.force_next(0)
        # Then each cycle: the first CPU access to SP after (re)start
        # trips detection, and the subsequent restore's chunk of SP
        # writes stays clean — so every re-execution faults again.
        for _ in range(MAX_ROLLBACKS_PER_SEGMENT + 1):
            faults.force_next(1)
            for _ in range(chunk_words):
                faults.force_next(0)
        completed, failure, rollbacks, overhead = runner.execute(
            platform, workload
        )
        assert not completed
        assert failure == "livelock"
        assert rollbacks == MAX_ROLLBACKS_PER_SEGMENT + 1

    def test_uncorrectable_instruction_memory(self, program):
        """A double bit-flip in the IM beats SECDED; rollback cannot
        repair instruction storage."""
        runner, platform, workload = self._prepared(program)
        platform.im.faults.force_next(0b11)
        completed, failure, rollbacks, overhead = runner.execute(
            platform, workload
        )
        assert not completed
        assert failure == "uncorrectable:IM"
        assert rollbacks == 0

    def test_pm_uncorrectable_on_restore(self, program):
        """A quintuple flip in the protected buffer beats the BCH t=4
        code exactly when a rollback needs it — the scheme's designed
        system-failure threshold."""
        runner, platform, workload = self._prepared(program)
        chunk_words = len(workload.data_words)
        # SP: clean initial-checkpoint reads, then one detected fault
        # on the first CPU access to force a rollback.
        for _ in range(chunk_words):
            platform.sp.faults.force_next(0)
        platform.sp.faults.force_next(1)
        # PM: clean checkpoint writes, then five simultaneous flips on
        # the first restore read — beyond BCH t=4.
        for _ in range(chunk_words):
            platform.pm.faults.force_next(0)
        platform.pm.faults.force_next(0b11111)
        completed, failure, rollbacks, overhead = runner.execute(
            platform, workload
        )
        assert not completed
        assert failure == "pm-uncorrectable"
        assert rollbacks == 1

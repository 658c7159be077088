"""Golden-run reuse: fault-free campaign runs answered without simulating.

A campaign task answers a seed from its point's golden run (the same
runner with ``p_bit`` exactly 0) when every fault model's first
geometric gap covers the accesses that model samples in the golden
run, and simulates it otherwise.  These tests are the exactness gates
of that shortcut:

* a Hypothesis differential test against an oracle that simulates
  every seed through ``runner.run`` under one scoped registry;
* the check agrees with the full run on which seeds see a fault;
* ``run_campaign`` is unchanged under the engine profiler (which turns
  the shortcut off) and across process fan-out;
* only :data:`repro.mitigation.SCHEME_RUNNERS` get the shortcut, and
  the golden-run memo stays bounded;
* the sampler invariant the check rests on: the first gap is one
  ``geometric(p_any)`` draw, whichever call makes it.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.analysis.campaign as campaign
from repro.analysis.campaign import run_campaign
from repro.core.access import (
    ACCESS_CELL_BASED_40NM,
    ACCESS_CELL_BASED_40NM_TYPICAL,
)
from repro.mitigation import (
    SCHEME_RUNNERS,
    NoMitigationRunner,
    OceanRunner,
    SchemeRunner,
    SecdedRunner,
)
from repro.obs import scoped_metrics
from repro.obs.profile import scoped_profiling
from repro.soc.faults import VoltageFaultModel
from repro.workloads.fft import build_fft_program

FREQUENCY = 290e3
LAWS = (ACCESS_CELL_BASED_40NM, ACCESS_CELL_BASED_40NM_TYPICAL)

#: Supply below each law's onset: above it (p_bit = 0), at it, the
#: sparse regime where most runs are fault-free, and the dense regime
#: where hardly any is.
ONSET_SHORTFALLS = (-0.02, 0.0, 0.06, 0.09, 0.12, 0.15, 0.19, 0.22)

_PROGRAMS = {n: build_fft_program(n) for n in (16, 64)}
_GOLDEN = {
    n: program.expected_output(list(program.data_words[:n]))
    for n, program in _PROGRAMS.items()
}


@pytest.fixture(autouse=True)
def _fresh_memo():
    """Each test starts and ends with an empty golden-run memo."""
    campaign._golden_runs.clear()
    yield
    campaign._golden_runs.clear()


def _point(runner_cls, fft=64, access_model=ACCESS_CELL_BASED_40NM,
           vdd=0.435):
    """The positional head of a task's args, up to its first seed."""
    return (
        runner_cls, _PROGRAMS[fft].workload, _GOLDEN[fft], access_model,
        vdd, FREQUENCY,
    )


def _task(point, first_seed, count, runner_kwargs, golden_run):
    return point + (first_seed, count, runner_kwargs, golden_run)


def _golden_run(point, runner_kwargs):
    return campaign._golden_run(*point, runner_kwargs)


def _oracle(point, first_seed, count, runner_kwargs):
    """Every seed simulated through ``runner.run``, one registry."""
    runner_cls, workload, golden, access_model, vdd, frequency = point
    with scoped_metrics() as registry:
        per_seed = [
            campaign._run_stats(
                runner_cls(access_model, seed=seed, **runner_kwargs).run(
                    workload, vdd=vdd, frequency=frequency
                ),
                golden,
            )
            for seed in range(first_seed, first_seed + count)
        ]
    return per_seed, registry.snapshot()


@pytest.fixture
def simulated(monkeypatch):
    """Counts the runs that really simulate (``SchemeRunner.run``)."""
    calls = []
    run = SchemeRunner.run

    def counted(self, *args, **kwargs):
        calls.append(self.seed)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(SchemeRunner, "run", counted)
    return calls


# ----------------------------------------------------------------------
# Differential: shortcut task == simulate-every-seed oracle
# ----------------------------------------------------------------------
@st.composite
def campaign_points(draw):
    scheme = draw(st.sampled_from(sorted(SCHEME_RUNNERS)))
    runner_kwargs = {"macro_style": "cell-based"}
    if scheme == "ocean":
        runner_kwargs["checkpoint_interval"] = draw(st.integers(1, 4))
        runner_kwargs["use_dma"] = draw(st.booleans())
    access_model = draw(st.sampled_from(LAWS))
    vdd = round(access_model.v_onset - draw(st.sampled_from(ONSET_SHORTFALLS)), 3)
    point = _point(
        SCHEME_RUNNERS[scheme], fft=draw(st.sampled_from((16, 64))),
        access_model=access_model, vdd=vdd,
    )
    return point, runner_kwargs


@given(
    scenario=campaign_points(),
    first_seed=st.integers(0, 2**20),
    lanes=st.sampled_from((1, 4, 16)),
)
@settings(max_examples=40, deadline=None)
def test_task_matches_simulating_every_seed(scenario, first_seed, lanes):
    point, runner_kwargs = scenario
    golden_run = _golden_run(point, runner_kwargs)
    assert golden_run is not None
    per_seed, snapshot = campaign._campaign_run_one(
        _task(point, first_seed, lanes, runner_kwargs, golden_run)
    )
    oracle_seeds, oracle_snapshot = _oracle(
        point, first_seed, lanes, runner_kwargs
    )
    assert per_seed == oracle_seeds
    assert snapshot.as_dict() == oracle_snapshot.as_dict()


# ----------------------------------------------------------------------
# The check decides exactly the runs that see no fault
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "runner_cls, runner_kwargs",
    [
        (NoMitigationRunner, {}),
        (SecdedRunner, {}),
        (OceanRunner, {}),
        (OceanRunner, {"checkpoint_interval": 3, "use_dma": True}),
    ],
)
def test_check_agrees_with_the_run_on_every_seed(runner_cls, runner_kwargs):
    """Never a faulted run called fault-free, never the reverse."""
    point = _point(runner_cls, vdd=0.445)
    golden_run = _golden_run(point, runner_kwargs)
    _, workload, _, access_model, vdd, frequency = point
    verdicts = []
    for seed in range(200, 240):
        runner = runner_cls(access_model, seed=seed, **runner_kwargs)
        fault_free = campaign._fault_free(runner, vdd, golden_run)
        outcome = runner.run(workload, vdd=vdd, frequency=frequency)
        faulted = sum(outcome.sim.injected_bits.values()) > 0
        assert fault_free is not faulted, seed
        verdicts.append(fault_free)
    # Both kinds of seed occur, so the comparison tested something.
    assert 0 < sum(verdicts) < len(verdicts)


def test_fault_free_seeds_are_not_simulated(simulated):
    point = _point(OceanRunner, access_model=ACCESS_CELL_BASED_40NM_TYPICAL,
                   vdd=0.27)
    runner_kwargs = {"macro_style": "cell-based"}
    golden_run = _golden_run(point, runner_kwargs)
    assert simulated == [0]  # the golden run itself
    per_seed, _ = campaign._campaign_run_one(
        _task(point, 100, 16, runner_kwargs, golden_run)
    )
    clean = [stats for stats in per_seed if stats == golden_run.stats]
    assert len(clean) >= 12
    assert len(simulated) == 1 + len(per_seed) - len(clean)


# ----------------------------------------------------------------------
# run_campaign: profiler, fan-out, eligibility, memo
# ----------------------------------------------------------------------
def _campaign_kwargs(runs=8):
    return dict(
        workload=_PROGRAMS[64].workload,
        golden=_GOLDEN[64],
        access_model=ACCESS_CELL_BASED_40NM,
        vdd=0.445,
        runs=runs,
        seed_base=300,
        macro_style="cell-based",
    )


def _without_profile(counters):
    return {
        name: value for name, value in counters.items()
        if not name.startswith("profile.")
    }


def test_profiler_turns_the_shortcut_off(simulated):
    kwargs = _campaign_kwargs()
    with scoped_metrics() as profiled_metrics, scoped_profiling():
        profiled = run_campaign(OceanRunner, **kwargs)
    assert len(simulated) == kwargs["runs"]
    assert profiled_metrics.snapshot().histograms["profile.engine"]

    del simulated[:]
    with scoped_metrics() as plain_metrics:
        plain = run_campaign(OceanRunner, **kwargs)
    assert len(simulated) < kwargs["runs"]
    assert plain == profiled
    assert plain.runs == kwargs["runs"]
    assert _without_profile(profiled_metrics.snapshot().counters) == (
        plain_metrics.snapshot().counters
    )


def test_fanned_out_campaign_matches_serial():
    kwargs = _campaign_kwargs()
    with scoped_metrics() as serial_metrics:
        serial = run_campaign(SecdedRunner, **kwargs)
    with scoped_metrics() as fanned_metrics:
        fanned = run_campaign(SecdedRunner, processes=2, **kwargs)
    assert fanned == serial
    assert serial.total_injected_bits > 0
    assert fanned_metrics.snapshot().counters == (
        serial_metrics.snapshot().counters
    )


def test_a_runner_outside_scheme_runners_gets_no_shortcut(simulated):
    class LocalSecded(SecdedRunner):
        """Defined here, so no test proves its fault-free runs equal."""

    kwargs = _campaign_kwargs()
    assert LocalSecded not in SCHEME_RUNNERS.values()
    point = _point(LocalSecded, vdd=kwargs["vdd"])
    assert _golden_run(point, {"macro_style": "cell-based"}) is None
    local = run_campaign(LocalSecded, **kwargs)
    assert len(simulated) == kwargs["runs"]
    assert campaign._golden_runs == {}
    assert local == run_campaign(SecdedRunner, **kwargs)


def test_points_no_golden_run_can_answer():
    runner_kwargs = {"macro_style": "cell-based"}
    assert _golden_run(_point(SecdedRunner, vdd=0.0), runner_kwargs) is None
    with scoped_metrics(), scoped_profiling():
        assert _golden_run(_point(SecdedRunner), runner_kwargs) is None
    assert campaign._golden_runs == {}


def test_golden_run_memo_is_a_bounded_lru(monkeypatch, simulated):
    monkeypatch.setattr(campaign, "GOLDEN_RUNS_KEPT", 2)
    runner_kwargs = {"macro_style": "cell-based"}

    def golden(vdd):
        return _golden_run(_point(SecdedRunner, fft=16, vdd=vdd), runner_kwargs)

    first = golden(0.44)
    second = golden(0.45)
    assert golden(0.44) is first  # a hit, and now the most recent
    golden(0.46)  # evicts 0.45, the least recently used
    assert len(campaign._golden_runs) == 2
    assert golden(0.44) is first
    assert golden(0.45) is not second
    assert len(campaign._golden_runs) == 2
    assert len(simulated) == 4  # 0.44, 0.45, 0.46, 0.45 again


# ----------------------------------------------------------------------
# The sampler invariant the check rests on
# ----------------------------------------------------------------------
def _fresh_model(vdd, width, seed):
    return VoltageFaultModel(
        ACCESS_CELL_BASED_40NM, width=width, vdd=vdd,
        rng=np.random.default_rng(seed),
    )


def _after_one_gap(model, seed):
    """The gap and RNG state of one ``geometric(p_any)`` draw."""
    reference = np.random.default_rng(seed)
    gap = int(reference.geometric(model.p_any)) - 1
    return gap, reference.bit_generator.state


@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.sampled_from((32, 39, 56)),
    vdd=st.sampled_from((0.40, 0.44, 0.48)),
)
@settings(max_examples=60, deadline=None)
def test_first_gap_is_one_geometric_draw_whoever_draws_it(seed, width, vdd):
    gap, state = _after_one_gap(_fresh_model(vdd, width, seed), seed)
    assume(gap >= 1)

    by_gap = _fresh_model(vdd, width, seed)
    assert by_gap.clean_run_length() == gap
    assert by_gap.rng.bit_generator.state == state

    by_mask = _fresh_model(vdd, width, seed)
    assert by_mask.sample_mask() == 0
    assert by_mask.rng.bit_generator.state == state
    assert by_mask.clean_run_length() == gap - 1

    accesses = min(gap, 1000)
    by_masks = _fresh_model(vdd, width, seed)
    assert not by_masks.sample_masks(accesses).any()
    assert by_masks.rng.bit_generator.state == state
    assert by_masks.clean_run_length() == gap - accesses
    assert by_masks.rng.bit_generator.state == state


@pytest.mark.parametrize("vdd", [ACCESS_CELL_BASED_40NM.v_onset, 0.6])
def test_a_model_that_cannot_fault_draws_nothing(vdd):
    model = _fresh_model(vdd, 39, seed=7)
    untouched = np.random.default_rng(7).bit_generator.state
    assert model.p_any == 0.0
    assert model.clean_run_length() == VoltageFaultModel.UNBOUNDED
    assert model.sample_mask() == 0
    assert not model.sample_masks(10_000).any()
    model.consume_clean(10_000)
    assert model.rng.bit_generator.state == untouched

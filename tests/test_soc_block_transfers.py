"""Block transfers are bit-exact with the per-word loops they replace.

:meth:`~repro.soc.ports.BlockTransfers.read_block`,
:meth:`~repro.soc.ports.BlockTransfers.write_block`,
:func:`~repro.soc.ports.copy_block`, OCEAN's ``_checkpoint`` /
``_restore`` and :meth:`~repro.soc.dma.DmaEngine.transfer` settle
fault-free runs in bulk.  Every test runs one scenario on two
identically seeded twins — one through the block path, one through an
inline loop of per-word ``port.read`` / ``port.write`` calls — and
requires the same observable outcome: returned values, exception type,
address and message, and afterwards (also after a raise) stored words,
memory version and access counters, port stats, fault-RNG state,
pending gap and forced/mask queues, injected bits and events, the
order of fault-injection trace events, and the metrics registry.

Scenarios cover every port flavour the platform builds (raw, SECDED,
detect-only SECDED, BCH t=4), dense to fault-free supplies, queued
``force_next`` masks, poked latent single/double/multi-bit errors
(DETECTED words mid-block, where the codec port raises),
``auto_scrub``, ``fault_on_write=False``, values the write path
rejects, and blocks that run past the end of the memory.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.access import ACCESS_CELL_BASED_40NM
from repro.ecc import BchCodec, SecdedCodec
from repro.ecc.base import DecodeStatus
from repro.mitigation import OceanRunner
from repro.mitigation.ocean import COPY_CYCLES_PER_WORD
from repro.soc.dma import DmaEngine
from repro.soc.faults import VoltageFaultModel
from repro.soc.memory import FaultyMemory
from repro.soc.platform import PlatformConfig
from repro.soc.ports import (
    CodecPort,
    DetectOnlyCodec,
    RawPort,
    UncorrectableError,
    copy_block,
)

_MODEL = ACCESS_CELL_BASED_40NM
_WORDS = 48
_KINDS = ("raw", "secded", "detect", "bch")
#: ~30 % of accesses faulty at 0.12 V, ~8 % at 0.20 V, ~0.3 % at
#: 0.33 V, none at 0.50 V (``p_any == 0``: an unbounded gap).
_VDDS = (0.12, 0.20, 0.33, 0.50)
#: OCEAN test platforms: small memories keep snapshots cheap.
_OCEAN_CONFIG = PlatformConfig(im_words=64, sp_words=128, pm_words=64)


def _codec(kind):
    if kind == "secded":
        return SecdedCodec()
    if kind == "detect":
        return DetectOnlyCodec(SecdedCodec())
    if kind == "bch":
        return BchCodec(data_bits=32, t=4)
    return None


def _width(kind):
    codec = _codec(kind)
    return 32 if codec is None else codec.code_bits


def _port(spec, salt=0):
    """One port and memory built from a scenario side ``spec``."""
    codec = _codec(spec["kind"])
    width = _width(spec["kind"])
    memory = FaultyMemory(
        f"M{salt}",
        _WORDS,
        width,
        faults=VoltageFaultModel(
            _MODEL, width, spec["vdd"],
            rng=np.random.default_rng([spec["seed"], salt]),
        ),
        fault_on_write=spec["fault_on_write"],
    )
    contents = np.random.default_rng([spec["seed"], salt, 1]).integers(
        0, 2**32, _WORDS
    )
    if codec is None:
        port = RawPort(memory)
    else:
        port = CodecPort(memory, codec, auto_scrub=spec["auto_scrub"])
    port.load([int(word) for word in contents])
    _corrupt(memory, spec)
    return port


def _corrupt(memory, spec):
    """Apply the scenario's pokes and queue its forced masks."""
    for address, bits in spec["pokes"]:
        mask = sum(1 << bit for bit in bits)
        memory.poke(address, memory.peek(address) ^ mask)
    for mask in spec["forced"]:
        memory.faults.force_next(mask)


@st.composite
def _sides(draw, kinds=_KINDS, words=_WORDS):
    """One port's configuration, latent corruption and forced masks."""
    kind = draw(st.sampled_from(kinds))
    width = _width(kind)
    bit = st.integers(0, width - 1)
    return {
        "kind": kind,
        "vdd": draw(st.sampled_from(_VDDS)),
        "seed": draw(st.integers(0, 2**16)),
        "auto_scrub": draw(st.booleans()),
        "fault_on_write": draw(st.booleans()),
        # 1-6 flipped bits per poke: correctable, DETECTED and (BCH)
        # beyond-detection words alike.
        "pokes": draw(st.lists(
            st.tuples(
                st.integers(0, words - 1),
                st.sets(bit, min_size=1, max_size=6),
            ),
            max_size=6,
        )),
        "forced": draw(st.lists(
            st.integers(0, (1 << width) - 1), max_size=3
        )),
    }


def _state(*ports):
    """Everything a per-word access can leave behind, per port."""
    out = []
    for port in ports:
        memory = port.memory
        faults = memory.faults
        out.append((
            memory.snapshot(),
            memory.version,
            (memory.counters.reads, memory.counters.writes),
            dataclasses.astuple(port.stats),
            faults.rng.bit_generator.state,
            faults._gap,
            list(faults._forced),
            list(faults._mask_block),
            faults.injected_bits,
            faults.injected_events,
        ))
    return out


def _observe(action):
    """Run ``action``; return its outcome, trace events and counters."""
    sink = obs.InMemorySink()
    obs.enable_tracing(sink, clock=lambda: 0.0)
    try:
        with obs.scoped_metrics() as registry:
            try:
                outcome = ("ok", action())
            except Exception as exc:  # compared against the twin
                outcome = (
                    "raise", type(exc), getattr(exc, "address", None),
                    str(exc),
                )
    finally:
        obs.disable_tracing()
    snapshot = registry.snapshot()
    return outcome, sink.events, snapshot.counters, snapshot.histograms


def _assert_twins(block_action, loop_action, block_ports, loop_ports):
    got = _observe(block_action)
    want = _observe(loop_action)
    assert got == want
    assert _state(*block_ports) == _state(*loop_ports)
    return got[0]


# ---------------------------------------------------------------------------
# read_block / write_block
# ---------------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(
    side=_sides(),
    base=st.integers(0, _WORDS - 1),
    count=st.integers(1, _WORDS + 8),
)
def test_read_block_matches_per_word_reads(side, base, count):
    block, loop = _port(side), _port(side)
    _assert_twins(
        lambda: block.read_block(base, count),
        lambda: [loop.read(base + i) for i in range(count)],
        [block], [loop],
    )


@settings(max_examples=150, deadline=None)
@given(
    side=_sides(),
    base=st.integers(0, _WORDS - 1),
    count=st.integers(1, _WORDS + 8),
    bad=st.one_of(st.none(), st.tuples(
        st.one_of(st.just(0), st.integers(0, _WORDS + 7)),
        st.sampled_from([-1, 1 << 32]),
    )),
)
def test_write_block_matches_per_word_writes(side, base, count, bad):
    values = [
        int(v) for v in np.random.default_rng(side["seed"] + 7).integers(
            0, 2**32, count
        )
    ]
    if bad is not None and bad[0] < count:
        values[bad[0]] = bad[1]  # a value the write path rejects
    block, loop = _port(side), _port(side)

    def per_word():
        for i, value in enumerate(values):
            loop.write(base + i, value)

    _assert_twins(
        lambda: block.write_block(base, list(values)), per_word,
        [block], [loop],
    )


@pytest.mark.parametrize("kind", ["raw", "secded"])
def test_rejected_first_value_draws_no_gap(kind):
    """A write the port rejects never samples, so a block write that
    starts with one must not draw the lazy gap either."""
    side = {
        "kind": kind, "vdd": 0.2, "seed": 3, "auto_scrub": False,
        "fault_on_write": True, "pokes": [], "forced": [],
    }
    block, loop = _port(side), _port(side)
    assert block.memory.faults._gap is None
    outcome = _assert_twins(
        lambda: block.write_block(0, [1 << 32, 5]),
        lambda: [loop.write(0, 1 << 32), loop.write(1, 5)],
        [block], [loop],
    )
    assert outcome[:2] == ("raise", ValueError)
    assert block.memory.faults._gap is None


# ---------------------------------------------------------------------------
# copy_block and DMA: two ports
# ---------------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(
    source=_sides(),
    dest=_sides(),
    source_base=st.integers(0, _WORDS - 1),
    dest_base=st.integers(0, _WORDS - 1),
    count=st.integers(1, _WORDS + 4),
)
def test_copy_block_matches_interleaved_per_word_copy(
    source, dest, source_base, dest_base, count
):
    block = (_port(source, 1), _port(dest, 2))
    loop = (_port(source, 1), _port(dest, 2))

    def per_word():
        for i in range(count):
            loop[1].write(dest_base + i, loop[0].read(source_base + i))

    _assert_twins(
        lambda: copy_block(block[0], source_base, block[1], dest_base, count),
        per_word, block, loop,
    )


@settings(max_examples=100, deadline=None)
@given(
    source=_sides(),
    dest=_sides(),
    source_base=st.integers(0, _WORDS - 1),
    dest_base=st.integers(0, _WORDS - 1),
    count=st.integers(1, _WORDS + 4),
)
def test_dma_transfer_matches_two_phase_per_word_copy(
    source, dest, source_base, dest_base, count
):
    block = (_port(source, 1), _port(dest, 2))
    loop = (_port(source, 1), _port(dest, 2))
    engine = DmaEngine()
    _assert_twins(
        lambda: engine.transfer(
            block[0], source_base, block[1], dest_base, count
        ),
        lambda: _dma_per_word(
            engine, loop[0], source_base, loop[1], dest_base, count
        ),
        block, loop,
    )


def test_copy_block_within_one_memory_runs_word_by_word():
    """Overlapping ranges of one memory copy exactly like the loop.

    Seed 5 at 0.2 V corrects words on the way and detects none, so the
    twins compare the whole overlapping copy, not two early raises.
    """
    side = {
        "kind": "secded", "vdd": 0.2, "seed": 5, "auto_scrub": True,
        "fault_on_write": True, "pokes": [], "forced": [],
    }
    block, loop = _port(side), _port(side)

    def per_word():
        for i in range(30):
            loop.write(10 + i, loop.read(4 + i))

    outcome = _assert_twins(
        lambda: copy_block(block, 4, block, 10, 30), per_word,
        [block], [loop],
    )
    assert outcome == ("ok", None)
    assert block.stats.corrected_words > 0


# ---------------------------------------------------------------------------
# OCEAN checkpoint / rollback copies
# ---------------------------------------------------------------------------
def _checkpoint_per_word(platform, base, words):
    chunk = [platform.sp_port.read(base + i) for i in range(words)]
    for i, value in enumerate(chunk):
        platform.pm_port.write(i, value)
    return 2 * words * COPY_CYCLES_PER_WORD


def _restore_per_word(platform, base, words):
    for i in range(words):
        platform.sp_port.write(base + i, platform.pm_port.read(i))
    return 2 * words * COPY_CYCLES_PER_WORD


def _dma_per_word(dma, source, source_base, dest, dest_base, words):
    block = [source.read(source_base + i) for i in range(words)]
    for i, value in enumerate(block):
        dest.write(dest_base + i, value)
    return dma.setup_cycles + words * dma.cycles_per_word


def _ocean_platform(spec, use_dma):
    runner = OceanRunner(
        _MODEL, config=_OCEAN_CONFIG, seed=spec["seed"], use_dma=use_dma
    )
    platform = runner.build_platform(spec["vdd"])
    rng = np.random.default_rng(spec["seed"])
    for port, memory in (
        (platform.sp_port, platform.sp), (platform.pm_port, platform.pm),
    ):
        port.load([int(v) for v in rng.integers(0, 2**32, memory.words)])
    for memory, side in ((platform.sp, "sp"), (platform.pm, "pm")):
        _corrupt(memory, spec[side])
    return runner, platform


@st.composite
def _ocean_scenarios(draw):
    sp = draw(_sides(kinds=("detect",), words=_OCEAN_CONFIG.sp_words))
    pm = draw(_sides(kinds=("bch",), words=_OCEAN_CONFIG.pm_words))
    return {
        "seed": draw(st.integers(0, 2**16)),
        "vdd": draw(st.sampled_from(_VDDS)),
        "sp": sp,
        "pm": pm,
        "base": draw(st.integers(0, 32)),
        "words": draw(st.integers(1, _OCEAN_CONFIG.pm_words)),
    }


@pytest.mark.parametrize("use_dma", [False, True])
@pytest.mark.parametrize("copy", ["_checkpoint", "_restore"])
@settings(max_examples=60, deadline=None)
@given(scenario=_ocean_scenarios())
def test_ocean_copies_match_per_word_loops(use_dma, copy, scenario):
    runner, block = _ocean_platform(scenario, use_dma)
    _, loop = _ocean_platform(scenario, use_dma)
    base, words = scenario["base"], scenario["words"]
    if use_dma:
        dma = DmaEngine()
        if copy == "_checkpoint":
            ends = (loop.sp_port, base, loop.pm_port, 0)
        else:
            ends = (loop.pm_port, 0, loop.sp_port, base)
        reference = lambda: _dma_per_word(dma, *ends, words)  # noqa: E731
    elif copy == "_checkpoint":
        reference = lambda: _checkpoint_per_word(loop, base, words)  # noqa: E731
    else:
        reference = lambda: _restore_per_word(loop, base, words)  # noqa: E731
    _assert_twins(
        lambda: getattr(runner, copy)(block, base, words), reference,
        [block.sp_port, block.pm_port], [loop.sp_port, loop.pm_port],
    )


def _detected_mask(codec, word):
    """A (seeded) six-bit flip mask the codec decodes as DETECTED."""
    rng = np.random.default_rng(0)
    while True:
        bits = rng.choice(codec.code_bits, size=6, replace=False)
        mask = sum(1 << int(bit) for bit in bits)
        if codec.decode(word ^ mask).status is DecodeStatus.DETECTED:
            return mask


def test_restore_raise_leaves_preceding_sp_words_restored():
    """An uncorrectable PM word stops the rollback right there: every
    SP word before it holds its PM value, every word from it on keeps
    the stale one — as the per-word copy leaves them."""
    spec = {"sp": {"pokes": [], "forced": []},
            "pm": {"pokes": [], "forced": []}, "seed": 9, "vdd": 0.5}
    runner, platform = _ocean_platform(spec, use_dma=False)
    base, words, bad = 8, 40, 23
    pm = platform.pm
    pm.poke(bad, pm.peek(bad) ^ _detected_mask(
        platform.pm_port.codec, pm.peek(bad)
    ))
    stale = [platform.sp_port.peek(base + i) for i in range(words)]
    saved = [platform.pm_port.peek(i) for i in range(words)]
    with pytest.raises(UncorrectableError) as excinfo:
        runner._restore(platform, base, words)
    assert excinfo.value.address == bad
    restored = [platform.sp_port.peek(base + i) for i in range(words)]
    assert restored[:bad] == saved[:bad]
    assert restored[bad:] == stale[bad:]
    assert platform.sp.counters.writes == bad
    assert platform.pm.counters.reads == bad + 1

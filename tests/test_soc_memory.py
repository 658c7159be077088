"""Tests for platform memories, fault engine, ports and energy model."""

import numpy as np
import pytest

from repro.core.access import ACCESS_CELL_BASED_40NM
from repro.ecc.base import DecodeStatus
from repro.ecc.bch import BchCodec
from repro.ecc.hamming import SecdedCodec
from repro.soc.energy_model import (
    MemoryComponentSpec,
    PlatformEnergyModel,
)
from repro.soc.faults import VoltageFaultModel
from repro.soc.memory import FaultyMemory, MemoryAccessFault
from repro.soc.platform import Platform
from repro.soc.ports import (
    CodecPort,
    DetectOnlyCodec,
    RawPort,
    UncorrectableError,
)


class TestVoltageFaultModel:
    def test_no_faults_above_onset(self):
        model = VoltageFaultModel(ACCESS_CELL_BASED_40NM, 32, vdd=0.6)
        assert all(model.sample_mask() == 0 for _ in range(1000))

    def test_fault_rate_tracks_model(self):
        engine = VoltageFaultModel(
            ACCESS_CELL_BASED_40NM, 39, vdd=0.34,
            rng=np.random.default_rng(0),
        )
        p_bit = ACCESS_CELL_BASED_40NM.bit_error_probability(0.34)
        trials = 100_000
        bits = sum(bin(engine.sample_mask()).count("1") for _ in range(trials))
        assert bits / (trials * 39) == pytest.approx(p_bit, rel=0.2)

    def test_set_vdd_changes_rate(self):
        engine = VoltageFaultModel(
            ACCESS_CELL_BASED_40NM, 32, vdd=0.30,
            rng=np.random.default_rng(1),
        )
        p_low = engine.p_bit
        engine.set_vdd(0.50)
        assert engine.p_bit < p_low

    def test_forced_faults_fire_in_order(self):
        engine = VoltageFaultModel(ACCESS_CELL_BASED_40NM, 32, vdd=1.0)
        engine.force_next(0b1)
        engine.force_next(0b110)
        assert engine.sample_mask() == 0b1
        assert engine.sample_mask() == 0b110
        assert engine.sample_mask() == 0
        assert engine.injected_events == 2
        assert engine.injected_bits == 3

    def test_forced_mask_width_check(self):
        engine = VoltageFaultModel(ACCESS_CELL_BASED_40NM, 8, vdd=1.0)
        with pytest.raises(ValueError):
            engine.force_next(1 << 8)

    def test_drawn_clean_run_length_never_draws(self):
        """It reports the pending gap only once an access drew it, and
        reads the RNG never."""
        engine = VoltageFaultModel(
            ACCESS_CELL_BASED_40NM, 32, vdd=0.34,
            rng=np.random.default_rng(2),
        )
        state = engine.rng.bit_generator.state
        assert engine.drawn_clean_run_length() is None
        assert engine.rng.bit_generator.state == state
        gap = engine.clean_run_length()  # the lazy draw
        state = engine.rng.bit_generator.state
        assert engine.drawn_clean_run_length() == gap
        assert engine.rng.bit_generator.state == state
        engine.force_next(0b1)
        assert engine.drawn_clean_run_length() == 0
        clean = VoltageFaultModel(ACCESS_CELL_BASED_40NM, 32, vdd=1.0)
        assert clean.drawn_clean_run_length() == VoltageFaultModel.UNBOUNDED


class TestFaultyMemory:
    def test_ideal_round_trip(self):
        memory = FaultyMemory("SP", 16, 32)
        memory.write(3, 0xCAFED00D)
        assert memory.read(3) == 0xCAFED00D

    def test_bounds(self):
        memory = FaultyMemory("SP", 16, 32)
        with pytest.raises(MemoryAccessFault):
            memory.read(16)
        with pytest.raises(MemoryAccessFault):
            memory.write(-1, 0)

    def test_width_enforced(self):
        memory = FaultyMemory("SP", 16, 32)
        with pytest.raises(ValueError):
            memory.write(0, 1 << 32)

    def test_forced_read_fault_is_destructive(self):
        engine = VoltageFaultModel(ACCESS_CELL_BASED_40NM, 32, vdd=1.0)
        memory = FaultyMemory("SP", 16, 32, faults=engine)
        memory.write(0, 0)
        engine.force_next(0b100)
        assert memory.read(0) == 0b100
        # The upset is stored, not transient.
        assert memory.peek(0) == 0b100

    def test_write_fault_corrupts_stored_value(self):
        engine = VoltageFaultModel(ACCESS_CELL_BASED_40NM, 32, vdd=1.0)
        memory = FaultyMemory("SP", 16, 32, faults=engine)
        engine.force_next(0b1)
        memory.write(0, 0b1000)
        assert memory.peek(0) == 0b1001

    def test_snapshot_restore(self):
        """A snapshot is a copy; loading it back restores the contents."""
        memory = FaultyMemory("SP", 8, 32)
        memory.write(2, 5)
        snap = memory.snapshot()
        memory.write(2, 9)
        assert snap[2] == 5
        memory.load(snap)
        assert memory.peek(2) == 5

    def test_fault_engine_width_must_match(self):
        engine = VoltageFaultModel(ACCESS_CELL_BASED_40NM, 39, vdd=1.0)
        with pytest.raises(ValueError, match="width"):
            FaultyMemory("SP", 16, 32, faults=engine)

    def test_load_bounds(self):
        memory = FaultyMemory("SP", 4, 32)
        with pytest.raises(MemoryAccessFault):
            memory.load([1, 2, 3], base=2)

    @pytest.mark.parametrize("bad", [1 << 40, -1])
    def test_rejected_load_changes_nothing(self, bad):
        """A load with one bad word stores none of its words, so a
        cached view keyed on ``version`` cannot go stale."""
        memory = FaultyMemory("A", 8, 32)
        memory.poke(3, 0x33)
        before, version = memory.snapshot(), memory.version
        with pytest.raises(ValueError):
            memory.load([7, bad, 9], base=2)
        assert memory.snapshot() == before
        assert memory.version == version

    def test_peek_block(self):
        memory = FaultyMemory("A", 8, 32)
        memory.load([5, 6, 7], base=4)
        assert memory.peek_block(4, 3) == [5, 6, 7]
        assert memory.peek_block(0, 0) == []
        assert memory.counters.total == 0
        with pytest.raises(MemoryAccessFault):
            memory.peek_block(6, 3)


class TestPorts:
    def test_raw_port_requires_32_bits(self):
        with pytest.raises(ValueError):
            RawPort(FaultyMemory("SP", 8, 39))

    def test_codec_port_round_trip_and_load(self):
        memory = FaultyMemory("SP", 8, 39)
        port = CodecPort(memory, SecdedCodec())
        port.load([1, 2, 3])
        assert [port.peek(i) for i in range(3)] == [1, 2, 3]
        port.write(4, 0xFEED)
        assert port.read(4) == 0xFEED
        # The load is a back-door: only the write and the read count.
        assert (port.stats.reads, port.stats.writes) == (1, 1)
        assert (memory.counters.reads, memory.counters.writes) == (1, 1)

    def test_codec_port_write_read_round_trip(self):
        port = CodecPort(FaultyMemory("SP", 8, 39), SecdedCodec())
        port.write(4, 0xFEEDFACE)
        assert port.read(4) == 0xFEEDFACE
        assert port.stats.reads == 1
        assert port.stats.writes == 1
        assert port.stats.corrected_words == port.stats.detected_words == 0

    def test_codec_port_counts_only_writes_the_memory_accepts(self):
        memory = FaultyMemory("SP", 8, 39)
        port = CodecPort(memory, SecdedCodec())
        with pytest.raises(ValueError):
            port.write(0, 1 << 32)  # wider than the codec's data word
        with pytest.raises(MemoryAccessFault):
            port.write(99, 5)  # past the memory's last word
        assert port.stats.writes == memory.counters.writes == 0
        port.write(0, 5)
        assert port.stats.writes == memory.counters.writes == 1

    def test_codec_port_stores_codewords(self):
        memory = FaultyMemory("SP", 8, 39)
        port = CodecPort(memory, SecdedCodec())
        port.write(0, 0xFEEDFACE)
        port.load([7], base=1)
        assert memory.peek(0) == SecdedCodec().encode(0xFEEDFACE)
        assert memory.peek(1) == SecdedCodec().encode(7)

    def test_codec_port_single_flip_corrected_and_counted(self):
        memory = FaultyMemory("SP", 8, 39)
        port = CodecPort(memory, SecdedCodec())
        port.write(0, 42)
        memory.poke(0, memory.peek(0) ^ (1 << 17))
        assert port.read(0) == 42
        assert port.stats.corrected_words == 1
        assert port.stats.corrected_bits == 1
        assert port.stats.detected_words == 0
        # Without auto_scrub the flipped codeword stays stored.
        assert memory.peek(0) == SecdedCodec().encode(42) ^ (1 << 17)

    def test_codec_port_double_flip_raises(self):
        memory = FaultyMemory("SP", 8, 39)
        port = CodecPort(memory, SecdedCodec())
        port.write(3, 42)
        memory.poke(3, memory.peek(3) ^ 0b101)
        with pytest.raises(UncorrectableError) as excinfo:
            port.read(3)
        assert excinfo.value.address == 3
        assert excinfo.value.result.status is DecodeStatus.DETECTED
        assert port.stats.detected_words == 1
        assert port.stats.corrected_words == 0

    def test_codec_port_corrects_and_scrubs(self):
        memory = FaultyMemory("SP", 8, 39)
        port = CodecPort(memory, SecdedCodec(), auto_scrub=True)
        port.write(0, 77)
        memory.poke(0, memory.peek(0) ^ (1 << 20))
        assert port.read(0) == 77
        # Scrub rewrote the clean codeword.
        assert memory.peek(0) == SecdedCodec().encode(77)

    def test_codec_port_width_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            CodecPort(FaultyMemory("SP", 8, 32), SecdedCodec())

    def test_detect_only_codec_never_corrects(self):
        codec = DetectOnlyCodec(SecdedCodec())
        codeword = codec.encode(123) ^ 1  # single flip
        result = codec.decode(codeword)
        assert result.status is DecodeStatus.DETECTED

    def test_detect_only_port_raises(self):
        memory = FaultyMemory("SP", 8, 39)
        port = CodecPort(memory, DetectOnlyCodec(SecdedCodec()))
        port.write(0, 5)
        memory.poke(0, memory.peek(0) ^ 1)
        with pytest.raises(UncorrectableError):
            port.read(0)


_CODECS = {
    "secded": SecdedCodec,
    "bch": lambda: BchCodec(data_bits=32, t=4),
    "detect": lambda: DetectOnlyCodec(SecdedCodec()),
}


class TestBatchValidation:
    """The batch codec API rejects what the scalar one rejects, with
    ``ValueError``, and never truncates; both port kinds load alike.
    (``tests/test_ecc_batch.py`` checks what it accepts.)"""

    @pytest.mark.parametrize("kind", sorted(_CODECS))
    @pytest.mark.parametrize("bad", [
        [-1],
        np.array([-1], dtype=np.int64),
        np.array([1.7]),
        np.array([3.9]),
        [2.0],
        [1 << 64],
    ], ids=["int", "int64", "float", "float-up", "integral-float", "wide"])
    def test_rejects_negative_non_integer_and_wide_words(self, kind, bad):
        codec = _CODECS[kind]()
        with pytest.raises(ValueError):
            codec.encode_batch(bad)
        with pytest.raises(ValueError):
            codec.decode_batch(bad)

    @pytest.mark.parametrize("kind", ["raw", *sorted(_CODECS)])
    @pytest.mark.parametrize("bad", [-1, 1 << 32])
    def test_platform_load_data_rejects_bad_words_alike(self, kind, bad):
        codec = None if kind == "raw" else _CODECS[kind]()
        width = 32 if codec is None else codec.code_bits
        im, sp = FaultyMemory("IM", 8, width), FaultyMemory("SP", 8, width)
        if codec is None:
            platform = Platform(im, RawPort(im), sp, RawPort(sp))
        else:
            platform = Platform(
                im, CodecPort(im, codec), sp, CodecPort(sp, codec)
            )
        with pytest.raises(ValueError):
            platform.load_data([5, bad, 6])
        assert sp.snapshot() == [0] * 8
        assert sp.version == 0


def _corrupted_codewords(codec, flips, n=256, seed=7):
    """``n`` random codewords of ``codec`` with ``flips`` bits flipped."""
    rng = np.random.default_rng(seed + flips)
    codewords = codec.encode_batch(
        rng.integers(0, 1 << codec.data_bits, size=n, dtype=np.uint64)
    )
    for i in range(n):
        for bit in rng.choice(codec.code_bits, size=flips, replace=False):
            codewords[i] ^= np.uint64(1) << np.uint64(bit)
    return codewords


class TestDetectOnlyBatch:
    @pytest.mark.parametrize("flips", [0, 1, 2, 3])
    def test_batch_matches_scalar(self, flips):
        from repro.ecc.base import status_code

        codec = DetectOnlyCodec(SecdedCodec())
        codewords = _corrupted_codewords(codec, flips)
        batch = codec.decode_batch(codewords)
        scalar = [codec.decode(int(cw)) for cw in codewords]
        assert batch.data.tolist() == [r.data for r in scalar]
        assert batch.status.tolist() == [
            status_code(r.status) for r in scalar
        ]
        assert batch.corrected_bits.tolist() == [0] * len(scalar)
        assert batch.status.dtype == np.uint8
        assert batch.corrected_bits.dtype == np.int64
        assert bool(batch.ok.all()) is (flips == 0)

    def test_decode_batch_does_not_call_decode(self, monkeypatch):
        codec = DetectOnlyCodec(SecdedCodec())
        codewords = _corrupted_codewords(codec, 1, n=8)

        def per_word(self, codeword):
            raise AssertionError("decode_batch fell back to decode()")

        monkeypatch.setattr(DetectOnlyCodec, "decode", per_word)
        monkeypatch.setattr(SecdedCodec, "decode", per_word)
        assert not bool(codec.decode_batch(codewords).ok.any())

    def test_records_only_under_its_own_name(self):
        from repro.obs import names, scoped_metrics

        codec = DetectOnlyCodec(SecdedCodec())
        codewords = np.concatenate([
            _corrupted_codewords(codec, 0, n=5),
            _corrupted_codewords(codec, 1, n=3),
        ])
        with scoped_metrics() as registry:
            codec.decode_batch(codewords, record=False)
            assert registry.snapshot().counters == {}
            codec.decode_batch(codewords)
        counters = registry.snapshot().counters
        assert counters == {
            names.ecc_metric("DetectOnlyCodec", "decoded_words"): 8,
            names.ecc_metric("DetectOnlyCodec", "clean"): 5,
            names.ecc_metric("DetectOnlyCodec", "corrected"): 0,
            names.ecc_metric("DetectOnlyCodec", "detected"): 3,
        }


class TestPlatformEnergyModel:
    def _model(self, specs=None):
        specs = specs or [
            MemoryComponentSpec(name="IM", words=1024, stored_bits=32),
            MemoryComponentSpec(name="SP", words=2048, stored_bits=32),
        ]
        return PlatformEnergyModel(specs)

    def test_report_components(self):
        model = self._model()
        report = model.report(
            vdd=0.55, frequency=290e3, cycles=100_000,
            access_counts={"IM": (100_000, 0), "SP": (30_000, 15_000)},
        )
        names = [c.name for c in report.components]
        assert names == ["core", "IM", "SP"]
        assert report.total_w > 0.0
        assert report.component("SP").dynamic_w > 0.0

    def test_power_scales_down_with_voltage(self):
        model = self._model()
        counts = {"IM": (100_000, 0), "SP": (30_000, 15_000)}
        high = model.report(0.55, 290e3, 100_000, counts)
        low = model.report(0.33, 290e3, 100_000, counts)
        assert low.total_w < 0.5 * high.total_w

    def test_wider_words_cost_more(self):
        raw = self._model()
        ecc = self._model([
            MemoryComponentSpec(
                name="IM", words=1024, stored_bits=39,
                codec_energy_factor=1.15,
            ),
            MemoryComponentSpec(
                name="SP", words=2048, stored_bits=39,
                codec_energy_factor=1.15,
            ),
        ])
        counts = {"IM": (100_000, 0), "SP": (30_000, 15_000)}
        assert (
            ecc.report(0.44, 290e3, 100_000, counts).component("SP").total_w
            > raw.report(0.44, 290e3, 100_000, counts).component("SP").total_w
        )

    def test_dict_export(self):
        report = self._model().report(
            0.55, 290e3, 1000, {"IM": (0, 0), "SP": (0, 0)}
        )
        flat = report.as_dict()
        assert set(flat) == {"core", "IM", "SP", "total"}

    def test_rejects_bad_inputs(self):
        model = self._model()
        with pytest.raises(ValueError):
            model.report(0.55, 0.0, 1000, {})
        with pytest.raises(ValueError):
            model.report(0.55, 290e3, 0, {})

    def test_unknown_component_lookup(self):
        report = self._model().report(
            0.55, 290e3, 1000, {"IM": (0, 0), "SP": (0, 0)}
        )
        with pytest.raises(KeyError):
            report.component("PM")

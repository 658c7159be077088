"""Tests for platform memories, fault engine, ports and energy model."""

import numpy as np
import pytest

from repro.core.access import ACCESS_CELL_BASED_40NM
from repro.ecc.hamming import SecdedCodec
from repro.soc.energy_model import (
    MemoryComponentSpec,
    PlatformEnergyModel,
)
from repro.soc.faults import VoltageFaultModel
from repro.soc.memory import FaultyMemory, MemoryAccessFault
from repro.soc.ports import CodecPort, DetectOnlyCodec, RawPort
from repro.ecc.wrapper import UncorrectableError


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
        memory = FaultyMemory("SP", 8, 32)
        memory.write(2, 5)
        snap = memory.snapshot()
        memory.write(2, 9)
        memory.restore(snap)
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
        from repro.ecc.base import DecodeStatus

        result = codec.decode(codeword)
        assert result.status is DecodeStatus.DETECTED

    def test_detect_only_port_raises(self):
        memory = FaultyMemory("SP", 8, 39)
        port = CodecPort(memory, DetectOnlyCodec(SecdedCodec()))
        port.write(0, 5)
        memory.poke(0, memory.peek(0) ^ 1)
        with pytest.raises(UncorrectableError):
            port.read(0)


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

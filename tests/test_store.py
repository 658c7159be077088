"""Content-addressed result store: keys, recovery, dedup, assembly.

The store's contract has three load-bearing promises, each tested
here:

* **Provenance-only keys** — a fingerprint depends on what a campaign
  point *is* (codec, fault model, voltage, seeds), never on how it
  happens to be executed (process count, lane width, retry budget).
* **Append-safe persistence** — torn sidecar tails, a corrupted SQLite
  file, a concurrent writer, or a payload that no longer matches its
  fingerprint must degrade to recovery or a miss, never to a wrong
  answer.
* **Exact reassembly** — a grid or curve assembled from any mix of
  cached and fresh points is bit-identical to a cold run.
"""

import json
import math
import sqlite3
import threading
import time

import numpy as np
import pytest

from repro.analysis.batch import BatchCampaign
from repro.analysis.campaign import run_campaign
from repro.core.access import (
    ACCESS_CELL_BASED_40NM,
    ACCESS_CELL_BASED_40NM_TYPICAL,
    ACCESS_COMMERCIAL_40NM,
)
from repro.core.errors import InvalidVoltageError
from repro.core.retention import RETENTION_COMMERCIAL_40NM
from repro.mitigation import SecdedRunner
from repro.store import (
    PointKey,
    ResultStore,
    decode_campaign_result,
    encode_campaign_result,
    fig5_point_key,
    fingerprint_provenance,
    scheme_campaign_key,
    scheme_failure_grid,
)
from repro.workloads.fft import build_fft_program

VOLTS = np.linspace(0.30, 0.50, 5)
ACCESSES = 2_000


def _fig5_keys(campaign, voltages=VOLTS, accesses=ACCESSES):
    return [
        fig5_point_key(
            ACCESS_CELL_BASED_40NM, float(vdd), accesses, 32,
            campaign.seed, i,
        )
        for i, vdd in enumerate(voltages)
    ]


class TestKeys:
    def test_fingerprint_is_stable_and_order_independent(self):
        a = PointKey.from_provenance("demo", {"x": 1, "y": 2.0})
        b = PointKey.from_provenance("demo", {"y": 2.0, "x": 1})
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_separates_provenance(self):
        base = dict(
            scheme="SECDED", workload="w", golden="g",
            access_model=ACCESS_CELL_BASED_40NM, vdd=0.44,
            frequency=290e3, runs=4, seed_base=100, lanes=1,
            runner_kwargs={},
        )

        def fp(**overrides):
            kwargs = {**base, **overrides}
            workload = build_fft_program(16)
            return scheme_campaign_key(
                kwargs["scheme"], workload, [1, 2, 3],
                kwargs["access_model"], kwargs["vdd"],
                kwargs["frequency"], kwargs["runs"],
                kwargs["seed_base"], kwargs["runner_kwargs"],
            ).fingerprint()

        assert fp() == fp()
        assert fp(vdd=0.45) != fp()
        assert fp(seed_base=101) != fp()
        # Lane width is an execution knob: lockstep runs are bit-exact
        # and only campaigns without quarantined runs are stored.
        assert fp(lanes=4) == fp()

    def test_scheme_campaign_fingerprint_is_pinned(self):
        """Stored campaigns stay warm only while this literal holds: a
        change to the key layout turns every stored point into a miss,
        and needs a ``KEY_SCHEMA`` bump."""
        key = scheme_campaign_key(
            "SECDED", build_fft_program(16), [1, 2, 3],
            ACCESS_CELL_BASED_40NM, 0.44, 290e3, 4, 100, {},
        )
        assert key.fingerprint() == (
            "efc24e74ab8353bff0fc01b93822125461220a8e5f967c249eb61fc46c97ea07"
        )

    def test_key_rejects_invalid_vdd(self):
        with pytest.raises(InvalidVoltageError):
            fig5_point_key(
                ACCESS_CELL_BASED_40NM, float("nan"), 100, 32, 5, 0
            )

    def test_provenance_roundtrips_through_fingerprint(self):
        key = fig5_point_key(ACCESS_CELL_BASED_40NM, 0.4, 100, 32, 5, 0)
        assert fingerprint_provenance(key.provenance()) == key.fingerprint()


class TestResultStoreBasics:
    def test_put_get_roundtrip_and_counters(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        key = fig5_point_key(ACCESS_CELL_BASED_40NM, 0.4, 100, 32, 5, 0)
        assert store.get(key) is None
        store.put(key, {"errors": 7})
        assert store.get(key) == {"errors": 7}
        stats = store.stats()
        assert stats["puts"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["rows"] == 1

    def test_get_survives_cold_lru(self, tmp_path):
        path = tmp_path / "s.sqlite"
        ResultStore(path).put(
            fig5_point_key(ACCESS_CELL_BASED_40NM, 0.4, 100, 32, 5, 0),
            {"errors": 7},
        )
        reopened = ResultStore(path)
        key = fig5_point_key(ACCESS_CELL_BASED_40NM, 0.4, 100, 32, 5, 0)
        assert reopened.get(key) == {"errors": 7}
        assert reopened.stats()["front_hits"] == 0

    def test_lru_eviction_bounded(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite", lru_capacity=2)
        keys = _fig5_keys(BatchCampaign(seed=5))[:3]
        for i, key in enumerate(keys):
            store.put(key, {"errors": i})
        stats = store.stats()
        assert stats["front_cache_entries"] == 2
        assert stats["evictions"] == 1
        # The evicted entry is still served (from SQLite).
        assert store.get(keys[0]) == {"errors": 0}

    def test_export_import_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "a.sqlite")
        keys = _fig5_keys(BatchCampaign(seed=5))
        for i, key in enumerate(keys):
            store.put(key, {"errors": i})
        exported = store.export_ndjson(tmp_path / "dump.ndjson")
        assert exported == len(keys)
        other = ResultStore(tmp_path / "b.sqlite")
        assert other.import_ndjson(tmp_path / "dump.ndjson") == len(keys)
        assert other.entries() == store.entries()
        for i, key in enumerate(keys):
            assert other.get(key) == {"errors": i}

    def test_import_skips_tampered_rows(self, tmp_path):
        store = ResultStore(tmp_path / "a.sqlite")
        keys = _fig5_keys(BatchCampaign(seed=5))[:2]
        for i, key in enumerate(keys):
            store.put(key, {"errors": i})
        dump = tmp_path / "dump.ndjson"
        store.export_ndjson(dump)
        lines = dump.read_text().splitlines()
        record = json.loads(lines[0])
        record["provenance"]["vdd"] = 0.999  # no longer matches
        dump.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
        fresh = ResultStore(tmp_path / "b.sqlite")
        assert fresh.import_ndjson(dump) == 1
        assert fresh.stats()["corrupt_entries"] == 1

    def test_gc_keeps_newest(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        keys = _fig5_keys(BatchCampaign(seed=5))
        for i, key in enumerate(keys):
            store.put(key, {"errors": i})
        removed = store.gc(keep=2)
        assert removed == len(keys) - 2
        assert len(store) == 2
        assert store.get(keys[-1]) == {"errors": len(keys) - 1}
        assert store.get(keys[0]) is None
        # The sidecar is rewritten to match, so recovery stays exact.
        reopened = ResultStore(tmp_path / "s2.sqlite")
        reopened.import_ndjson(store.sidecar_path)
        assert len(reopened) == 2


class TestRecovery:
    def _seeded(self, tmp_path, n=4):
        store = ResultStore(tmp_path / "s.sqlite")
        keys = _fig5_keys(BatchCampaign(seed=5))[:n]
        for i, key in enumerate(keys):
            store.put(key, {"errors": i})
        return store, keys

    def test_rebuild_from_sidecar_after_db_loss(self, tmp_path):
        store, keys = self._seeded(tmp_path)
        store.path.unlink()
        reopened = ResultStore(store.path)
        assert len(reopened) == len(keys)
        assert reopened.stats()["recoveries"] == 1
        for i, key in enumerate(keys):
            assert reopened.get(key) == {"errors": i}

    def test_torn_sidecar_tail_is_tolerated(self, tmp_path):
        store, keys = self._seeded(tmp_path)
        raw = store.sidecar_path.read_bytes()
        store.sidecar_path.write_bytes(raw[: len(raw) - 20])  # torn tail
        store.path.unlink()
        reopened = ResultStore(store.path)
        assert len(reopened) == len(keys) - 1
        for i, key in enumerate(keys[:-1]):
            assert reopened.get(key) == {"errors": i}

    def test_corrupt_sqlite_file_recovers(self, tmp_path):
        store, keys = self._seeded(tmp_path)
        store.path.write_bytes(b"this is not a sqlite database at all")
        reopened = ResultStore(store.path)
        assert reopened.stats()["recoveries"] == 1
        assert len(reopened) == len(keys)
        assert store.path.with_name(store.path.name + ".corrupt").exists()
        for i, key in enumerate(keys):
            assert reopened.get(key) == {"errors": i}

    def test_fingerprint_mismatch_is_a_loud_miss(self, tmp_path):
        store, keys = self._seeded(tmp_path, n=1)
        conn = sqlite3.connect(str(store.path))
        provenance = dict(keys[0].provenance())
        provenance["vdd"] = 0.999
        conn.execute(
            "UPDATE results SET provenance = ?",
            (json.dumps(provenance, sort_keys=True),),
        )
        conn.commit()
        conn.close()
        probe = ResultStore(store.path)  # fresh LRU, forces SQLite read
        assert probe.get(keys[0]) is None
        stats = probe.stats()
        assert stats["corrupt_entries"] == 1
        assert stats["rows"] == 0  # poisoned row deleted

    def test_concurrent_writers_share_one_database(self, tmp_path):
        path = tmp_path / "s.sqlite"
        writer_a, writer_b = ResultStore(path), ResultStore(path)
        keys = _fig5_keys(BatchCampaign(seed=5))
        errors = []

        def hammer(store, assigned):
            try:
                for i, key in assigned:
                    store.put(key, {"errors": i})
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        split = [
            (writer_a, [(i, k) for i, k in enumerate(keys) if i % 2 == 0]),
            (writer_b, [(i, k) for i, k in enumerate(keys) if i % 2 == 1]),
        ]
        threads = [
            threading.Thread(target=hammer, args=pair) for pair in split
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        reader = ResultStore(path)
        for i, key in enumerate(keys):
            assert reader.get(key) == {"errors": i}


class TestInflightDedup:
    def test_fetch_or_compute_runs_once_across_threads(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        key = fig5_point_key(ACCESS_CELL_BASED_40NM, 0.4, 100, 32, 5, 0)
        compute_calls = []
        barrier = threading.Barrier(2)

        def compute():
            compute_calls.append(threading.get_ident())
            time.sleep(0.05)  # keep the claim open while both race
            return {"errors": 42}

        outcomes = []

        def race():
            barrier.wait()
            outcomes.append(store.fetch_or_compute(key, compute))

        threads = [threading.Thread(target=race) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(compute_calls) == 1
        assert [payload for payload, _ in outcomes] == [
            {"errors": 42},
            {"errors": 42},
        ]
        assert sorted(cached for _, cached in outcomes) == [False, True]
        assert store.stats()["inflight_waits"] >= 1

    def test_owner_failure_hands_claim_to_waiter(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        key = fig5_point_key(ACCESS_CELL_BASED_40NM, 0.4, 100, 32, 5, 0)

        def exploding():
            raise RuntimeError("owner died")

        with pytest.raises(RuntimeError):
            store.fetch_or_compute(key, exploding)
        # The claim was released; a second caller computes normally.
        payload, cached = store.fetch_or_compute(
            key, lambda: {"errors": 1}
        )
        assert (payload, cached) == ({"errors": 1}, False)


class TestFig5GridStore:
    def test_mixed_cache_assembly_is_bit_identical(self, tmp_path):
        campaign = BatchCampaign(seed=5)
        baseline = campaign.access_ber_grid(
            ACCESS_CELL_BASED_40NM, VOLTS, ACCESSES
        )
        store = ResultStore(tmp_path / "s.sqlite")
        cold = campaign.access_ber_grid(
            ACCESS_CELL_BASED_40NM, VOLTS, ACCESSES, store=store
        )
        np.testing.assert_array_equal(cold.errors, baseline.errors)

        warm = campaign.access_ber_grid(
            ACCESS_CELL_BASED_40NM, VOLTS, ACCESSES, store=store
        )
        np.testing.assert_array_equal(warm.errors, baseline.errors)
        assert store.stats()["hits"] == len(VOLTS)

        # Half-primed store: even points cached, odd points fresh.
        half = ResultStore(tmp_path / "half.sqlite")
        for i, key in enumerate(_fig5_keys(campaign)):
            if i % 2 == 0:
                half.put(key, store.get(key))
        mixed = campaign.access_ber_grid(
            ACCESS_CELL_BASED_40NM, VOLTS, ACCESSES, store=half
        )
        np.testing.assert_array_equal(mixed.errors, baseline.errors)
        stats = half.stats()
        assert stats["misses"] == len(VOLTS) // 2
        assert len(half) == len(VOLTS)  # fresh points published back


class TestRetentionCurveStore:
    VOLTS = np.linspace(0.4, 1.0, 5)

    def _curve(self, store=None):
        return BatchCampaign(seed=2014).retention_failure_curve(
            RETENTION_COMMERCIAL_40NM, ACCESS_COMMERCIAL_40NM, self.VOLTS,
            n_dies=4, words=64, bits=32, store=store,
        )

    def test_cold_warm_and_mixed_match_storeless(self, tmp_path):
        baseline = self._curve()
        store = ResultStore(tmp_path / "s.sqlite")
        cold = self._curve(store=store)
        np.testing.assert_array_equal(cold, baseline)
        assert len(store) == 4

        warm = self._curve(store=store)
        np.testing.assert_array_equal(warm, baseline)
        assert store.stats()["hits"] == 4

        # Drop the two oldest dies; the re-run mixes cached and fresh.
        store.gc(keep=2)
        mixed = self._curve(store=store)
        np.testing.assert_array_equal(mixed, baseline)
        assert len(store) == 4


class TestCampaignStore:
    #: Worst-case macro at a supply where real bits flip (the SECDED
    #: campaign then exercises injection + correction, so the stored
    #: payload carries nonzero totals) while staying fast.
    RUNS = 2
    VDD = 0.44

    def _kwargs(self, store, **overrides):
        program = build_fft_program(64)
        golden = program.expected_output(list(program.data_words[:64]))
        kwargs = dict(
            workload=program.workload,
            golden=golden,
            access_model=ACCESS_CELL_BASED_40NM,
            vdd=self.VDD,
            runs=self.RUNS,
            seed_base=100,
            macro_style="cell-based",
            store=store,
        )
        kwargs.update(overrides)
        return kwargs

    def test_warm_result_is_bit_identical_and_store_served(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        cold = run_campaign(SecdedRunner, **self._kwargs(store))
        assert cold.resilience is not None  # actually executed
        warm = run_campaign(SecdedRunner, **self._kwargs(store))
        assert warm.resilience is None  # served, not executed
        assert warm == cold  # resilience is compare=False: bit-identity

    def test_execution_knobs_do_not_change_the_key(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        cold = run_campaign(SecdedRunner, **self._kwargs(store))
        warm = run_campaign(
            SecdedRunner,
            **self._kwargs(store, max_retries=7, task_timeout=30.0),
        )
        assert warm.resilience is None
        assert warm == cold

    def test_lane_width_is_not_provenance(self, tmp_path):
        """A lockstep campaign is answered by the stored scalar one."""
        store = ResultStore(tmp_path / "s.sqlite")
        cold = run_campaign(SecdedRunner, **self._kwargs(store, runs=5))
        hits = store.stats()["hits"]
        laned = run_campaign(
            SecdedRunner, **self._kwargs(store, runs=5, lanes=4)
        )
        assert laned.resilience is None
        assert laned == cold
        assert store.stats()["hits"] == hits + 1
        assert len(store) == 6  # five run rows and the campaign row

    def test_payload_codec_roundtrips_exactly(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        cold = run_campaign(SecdedRunner, **self._kwargs(store))
        payload = encode_campaign_result(cold)
        decoded = decode_campaign_result(payload)
        assert decoded == cold
        assert encode_campaign_result(decoded) == payload

    def test_grid_pipeline_counts_hits(self, tmp_path):
        program = build_fft_program(64)
        golden = program.expected_output(list(program.data_words[:64]))
        store = ResultStore(tmp_path / "s.sqlite")
        vdds = [0.44, 0.46]
        cold = scheme_failure_grid(
            SecdedRunner, program.workload, golden,
            ACCESS_CELL_BASED_40NM, vdds,
            store=store, runs=self.RUNS, seed_base=100,
            macro_style="cell-based",
        )
        assert (cold.hits, cold.executed_points) == (0, 2)
        warm = scheme_failure_grid(
            SecdedRunner, program.workload, golden,
            ACCESS_CELL_BASED_40NM, vdds,
            store=store, runs=self.RUNS, seed_base=100,
            macro_style="cell-based",
        )
        assert (warm.hits, warm.executed_points) == (2, 0)
        assert warm.hit_ratio == 1.0
        assert warm.results == cold.results

    def test_quick_math_guard(self):
        # p_bit at the test voltage is tiny but nonzero: the campaign
        # exercises the fault machinery without being dominated by it.
        p = ACCESS_CELL_BASED_40NM.bit_error_probability(self.VDD)
        assert 0.0 < p < 1e-3
        assert math.isfinite(p)

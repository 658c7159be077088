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

import dataclasses
import json
import math
import os
import sqlite3
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.store.store as store_module
from repro.analysis.batch import BatchCampaign
from repro.analysis.campaign import run_campaign
from repro.core.access import (
    ACCESS_CELL_BASED_40NM,
    ACCESS_CELL_BASED_40NM_TYPICAL,
    ACCESS_COMMERCIAL_40NM,
    AccessErrorModel,
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
    fingerprint_payload,
    scheme_campaign_key,
    scheme_failure_grid,
    workload_fingerprint,
)
from repro.store.keys import FINGERPRINTS_KEPT, _golden_digest, _workload_digest
from repro.store.keys import fig5_point_keys
from repro.workloads.fft import build_fft_program
from repro.workloads.streaming import StreamingWorkload

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

    def test_equal_workloads_and_goldens_share_a_key(self):
        """The digest memos are keyed by value: a rebuilt workload, and a
        golden list next to its tuple, give the stored point's key."""
        first, second = build_fft_program(16), build_fft_program(16)
        assert first.workload == second.workload
        assert first.workload is not second.workload

        def key(workload, golden):
            return scheme_campaign_key(
                "SECDED", workload, golden, ACCESS_CELL_BASED_40NM, 0.44,
                290e3, 4, 100, {},
            )

        assert key(first.workload, [1, 2, 3]) == key(
            second.workload, (1, 2, 3)
        )
        assert key(first, [1, 2, 3]) == key(second.workload, [1, 2, 3])
        assert key(first.workload, [1, 2, 3]) != key(
            first.workload, [1, 2, 4]
        )

    def test_workload_equality_covers_every_fingerprinted_field(self):
        """Equal workloads must fingerprint alike, or the by-value memo
        would hand one workload another's digest: every field takes part
        in equality, and changing any of them changes the digest."""
        workload = build_fft_program(16).workload
        assert all(f.compare for f in dataclasses.fields(StreamingWorkload))
        phase = dataclasses.replace(workload.phases[0], name="renamed")
        changes = {
            "name": "other",
            "program_words": workload.program_words + (0,),
            "phases": (phase,) + workload.phases[1:],
            "data_words": workload.data_words + (0,),
            "data_base": workload.data_base + 1,
            "result_base": workload.result_base + 1,
            "result_words": workload.result_words + 1,
        }
        assert set(changes) == {
            f.name for f in dataclasses.fields(StreamingWorkload)
        }
        for field_name, value in changes.items():
            changed = dataclasses.replace(workload, **{field_name: value})
            assert changed != workload, field_name
            assert workload_fingerprint(changed) != workload_fingerprint(
                workload
            ), field_name

    def test_digest_memos_are_bounded(self):
        assert _workload_digest.cache_info().maxsize == FINGERPRINTS_KEPT
        assert _golden_digest.cache_info().maxsize == FINGERPRINTS_KEPT

    @given(
        amplitude=st.floats(min_value=1e-9, max_value=1e9),
        exponent=st.floats(min_value=1e-3, max_value=20.0),
        v_onset=st.floats(min_value=1e-3, max_value=2.0),
        vdd=st.floats(min_value=0.0, max_value=2.0),
        accesses=st.integers(min_value=0, max_value=10**9),
        bits=st.integers(min_value=1, max_value=4096),
        seed=st.integers(min_value=0, max_value=2**64),
        index=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_grid_keys_match_the_canonical_encoding(
        self, amplitude, exponent, v_onset, vdd, accesses, bits, seed, index
    ):
        """A grid's keys format index and vdd into text encoded once;
        the result is byte for byte the canonical provenance."""
        model = AccessErrorModel(amplitude, exponent, v_onset)
        expected = PointKey.from_provenance(
            "fig5-point",
            {
                "access_model": {
                    "amplitude": amplitude,
                    "exponent": exponent,
                    "v_onset": v_onset,
                },
                "vdd": vdd,
                "accesses": accesses,
                "bits": bits,
                "seed": seed,
                "index": index,
            },
        )
        (grid_key,) = fig5_point_keys(
            model, accesses, bits, seed, [(index, np.float64(vdd))]
        )
        single = fig5_point_key(model, vdd, accesses, bits, seed, index)
        for key in (grid_key, single):
            assert key.provenance_json == expected.provenance_json
            assert key.fingerprint() == expected.fingerprint()

    def test_key_rejects_invalid_vdd(self):
        with pytest.raises(InvalidVoltageError):
            fig5_point_key(
                ACCESS_CELL_BASED_40NM, float("nan"), 100, 32, 5, 0
            )

    def test_provenance_roundtrips_through_fingerprint(self):
        key = fig5_point_key(ACCESS_CELL_BASED_40NM, 0.4, 100, 32, 5, 0)
        assert fingerprint_payload(key.provenance()) == key.fingerprint()

    def test_a_probe_hashes_its_key_once(self, tmp_path, monkeypatch):
        """Claim, lookup and publish reuse the digest the key made when
        it was built; only a database hit hashes again, to verify the
        stored row's provenance."""
        import hashlib

        store = ResultStore(tmp_path / "s.sqlite")
        key = fig5_point_key(ACCESS_CELL_BASED_40NM, 0.4, 100, 32, 5, 0)

        def no_hash(*args, **kwargs):
            raise AssertionError("a key was hashed again")

        monkeypatch.setattr(hashlib, "sha256", no_hash)
        assert store.fetch_or_compute(key, lambda: {"errors": 7}) == (
            {"errors": 7}, False,
        )
        assert store.fetch_or_compute(key, lambda: None) == (
            {"errors": 7}, True,
        )


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


class TestConnections:
    """One SQLite connection per thread and store, holding nothing
    between operations and reopened when the path names another file."""

    def _keys(self, n):
        return _fig5_keys(BatchCampaign(seed=5))[:n]

    def _assert_unlocked(self, path):
        """A second connection can take the exclusive lock at once."""
        raw = sqlite3.connect(str(path), timeout=0)
        try:
            raw.execute("BEGIN EXCLUSIVE")
            raw.rollback()
        finally:
            raw.close()

    def test_a_thread_connects_once(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "s.sqlite", lru_capacity=0)
        connect = sqlite3.connect
        connects = []

        def counted(*args, **kwargs):
            connects.append(threading.get_ident())
            return connect(*args, **kwargs)

        monkeypatch.setattr(store_module.sqlite3, "connect", counted)
        keys = self._keys(5)
        errors = []

        def work():
            try:
                for i, key in enumerate(keys[:4]):
                    store.put(key, {"errors": i})
                    assert store.get(key) == {"errors": i}
                    assert store.get(keys[4]) is None
                assert len(store) == 4
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert errors == []
        assert connects == [worker.ident]

    def test_threads_sharing_one_store(self, tmp_path, monkeypatch):
        """More threads than cores publish and read back through one
        store, each on its own connection, with none lost."""
        store = ResultStore(tmp_path / "s.sqlite", lru_capacity=0)
        connect = sqlite3.connect
        connects = []

        def counted(*args, **kwargs):
            connects.append(threading.get_ident())
            return connect(*args, **kwargs)

        monkeypatch.setattr(store_module.sqlite3, "connect", counted)
        n_threads, per_thread = 6, 5
        keys = fig5_point_keys(
            ACCESS_CELL_BASED_40NM, ACCESSES, 32, 5,
            enumerate(np.linspace(0.30, 0.50, n_threads * per_thread)),
        )
        errors = []

        def work(mine):
            try:
                for i, key in mine:
                    store.put(key, {"errors": i})
                    assert store.get(key) == {"errors": i}
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(
                target=work,
                args=(list(enumerate(keys))[t::n_threads],),
            )
            for t in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sorted(connects) == sorted(t.ident for t in threads)
        stats = store.stats()
        assert (stats["puts"], stats["hits"]) == (len(keys), len(keys))
        assert stats["rows"] == len(keys)

    def test_no_lock_outlives_an_operation(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite", lru_capacity=0)
        hit, missing, fresh = self._keys(3)
        store.put(hit, {"errors": 1})
        self._assert_unlocked(store.path)
        assert store.get(hit) == {"errors": 1}
        self._assert_unlocked(store.path)
        assert store.get(missing) is None
        self._assert_unlocked(store.path)
        store.put(fresh, {"errors": 2})
        self._assert_unlocked(store.path)

    def test_a_failed_operation_leaves_no_lock(self, tmp_path, monkeypatch):
        """An exception between the write and its commit discards the
        transaction and its lock; the next operation reconnects."""
        failing = []

        class FailingCommit(sqlite3.Connection):
            def commit(self):
                if failing:
                    raise RuntimeError("interrupted before commit")
                super().commit()

        connect = sqlite3.connect
        monkeypatch.setattr(
            store_module.sqlite3, "connect",
            lambda *args, **kwargs: connect(
                *args, factory=FailingCommit, **kwargs
            ),
        )
        store = ResultStore(tmp_path / "s.sqlite", lru_capacity=0)
        key = self._keys(1)[0]
        failing.append(True)
        with pytest.raises(RuntimeError, match="interrupted"):
            store.put(key, {"errors": 1})
        self._assert_unlocked(store.path)
        failing.clear()
        assert store.get(key) is None
        store.put(key, {"errors": 2})
        assert store.get(key) == {"errors": 2}

    def test_a_replaced_file_is_seen_on_the_next_get(self, tmp_path):
        live = ResultStore(tmp_path / "live.sqlite", lru_capacity=0)
        key = self._keys(1)[0]
        live.put(key, {"errors": 1})
        assert live.get(key) == {"errors": 1}
        other = ResultStore(tmp_path / "other.sqlite")
        other.put(key, {"errors": 2})
        os.replace(other.path, live.path)
        assert live.get(key) == {"errors": 2}

    def test_connections_close_with_their_thread_and_store(
        self, tmp_path, monkeypatch
    ):
        """A ``sqlite3`` connection sits in a reference cycle, so only an
        explicit close frees it before the cyclic collector runs: a
        thread's connection closes when the thread ends, and the rest
        when the store is dropped."""
        opened = {}
        connect = sqlite3.connect

        def tracked(*args, **kwargs):
            conn = connect(*args, **kwargs)
            opened.setdefault(threading.get_ident(), []).append(conn)
            return conn

        def closed(conn):
            try:
                conn.execute("SELECT 1")
            except sqlite3.ProgrammingError:
                return True
            return False

        monkeypatch.setattr(store_module.sqlite3, "connect", tracked)
        store = ResultStore(tmp_path / "s.sqlite", lru_capacity=0)
        key = self._keys(1)[0]
        store.put(key, {"errors": 1})
        worker = threading.Thread(target=store.get, args=(key,))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert [closed(conn) for conn in opened[worker.ident]] == [True]
        mine = opened[threading.get_ident()]
        assert not closed(mine[-1])
        del store
        assert all(closed(conn) for conn in mine)


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

    def test_concurrent_campaigns_compute_once(self, tmp_path, monkeypatch):
        """Two threads run one campaign: the first computes under the
        store's claim, the second waits on it and is served."""
        import repro.analysis.campaign as campaign

        store = ResultStore(tmp_path / "s.sqlite")
        execute = campaign._execute_campaign

        def held(*args, **kwargs):
            deadline = time.monotonic() + 60
            while store.stats()["inflight_waits"] < 1:
                assert time.monotonic() < deadline, "no caller waited"
                time.sleep(0.01)
            return execute(*args, **kwargs)

        monkeypatch.setattr(campaign, "_execute_campaign", held)
        results = []

        def run():
            results.append(run_campaign(SecdedRunner, **self._kwargs(store)))

        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert len(results) == 2
        assert sorted(r.resilience is None for r in results) == [False, True]
        assert results[0] == results[1]
        assert store.stats()["inflight_waits"] >= 1

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

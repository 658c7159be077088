"""Shared codec tables: one read-only set per code, built once.

Every SECDED instance shares one table set, and every BCH instance with
the same ``(data_bits, t, m)`` shares another.  The sets are read-only
(a stray write would corrupt every codec of that code) and are built
under a lock, because the job server constructs codecs on several
worker threads at once.
"""

import sys
import threading
from functools import partial

import numpy as np
import pytest

from repro.ecc import BchCodec, SecdedCodec, bch, hamming
from repro.ecc.base import Codec, byte_tables
from repro.ecc.gf2m import get_field


@pytest.mark.parametrize(
    "make", [SecdedCodec, lambda: BchCodec(t=4), lambda: BchCodec(t=1)],
    ids=["secded", "bch-t4", "bch-t1"],
)
def test_tables_are_read_only(make):
    codec = make()
    arrays = [
        value for value in codec._tables.values()
        if isinstance(value, np.ndarray)
    ]
    assert arrays
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 1
    with pytest.raises(TypeError):
        codec._tables["_enc_bytes"] = ()


def test_instances_of_one_code_share_tables():
    assert SecdedCodec()._tables is SecdedCodec()._tables
    a, b = BchCodec(t=4), BchCodec(data_bits=32, t=4, m=6)
    assert a._tables is b._tables
    assert a._syn_byte_luts is b._syn_byte_luts


def test_different_strengths_do_not_share_tables():
    t2, t4 = BchCodec(t=2), BchCodec(t=4)
    assert t2._tables is not t4._tables
    assert t2.code_bits == 44 and t4.code_bits == 56
    assert len(t2._syn_bytes) == 6 and len(t4._syn_bytes) == 7
    for codec in (t2, t4):
        assert codec.decode(codec.encode(0xCAFEBABE)).data == 0xCAFEBABE


def test_invalid_parameters_still_raise():
    BchCodec(t=4)  # a valid build of a neighbouring key is memoized
    with pytest.raises(ValueError, match="t must be"):
        BchCodec(t=0)
    with pytest.raises(ValueError, match="positive"):
        BchCodec(data_bits=0)
    for _ in range(2):  # a failed build memoizes nothing
        with pytest.raises(ValueError, match="dimension"):
            BchCodec(data_bits=40, t=4)
    assert (BchCodec, 40, 4, 6) not in Codec._table_memo


def test_concurrent_construction_builds_one_set_per_key(monkeypatch):
    """8 threads (more than the cores) race to build three codes from a
    cold memo with a tiny switch interval; each code ends up with one
    table object."""
    # Start cold; the final memo-size check proves this is the memo.
    monkeypatch.setattr(Codec, "_table_memo", {}, raising=False)
    makers = [SecdedCodec, lambda: BchCodec(t=2), lambda: BchCodec(t=4)]
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    built = [[] for _ in range(n_threads)]
    errors = []

    def construct(slot):
        try:
            barrier.wait(timeout=30)
            for make in makers * 3:
                built[slot].append(make())
        except BaseException as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [
        threading.Thread(target=construct, args=(slot,), daemon=True)
        for slot in range(n_threads)
    ]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "table build deadlocked"
    finally:
        sys.setswitchinterval(previous)
    assert not errors
    tables_by_code = {}
    for codecs in built:
        assert len(codecs) == 3 * len(makers)
        for codec in codecs:
            key = (type(codec), codec.code_bits)
            tables_by_code.setdefault(key, set()).add(
                id(codec._enc_byte_luts)
            )
    assert len(tables_by_code) == 3
    assert all(len(ids) == 1 for ids in tables_by_code.values())
    assert len(Codec._table_memo) == 3


def _per_value_tables(fn, width):
    """The per-value construction: ``fn`` of every byte value at every
    byte position, 256 calls per byte."""
    mask = (1 << width) - 1
    return [
        [fn((v << (8 * k)) & mask) for v in range(256)]
        for k in range((width + 7) // 8)
    ]


@pytest.mark.parametrize(
    "build, calls",
    [(hamming._build_tables, 3)] + [
        (partial(bch._build_tables, get_field(6), t, 32), 2)
        for t in (1, 2, 3, 4)
    ],
    ids=["secded", "bch-t1", "bch-t2", "bch-t3", "bch-t4"],
)
def test_basis_built_byte_tables_equal_the_per_value_construction(
    build, calls, monkeypatch
):
    """Every byte-table set a codec builds (SECDED's encode, extract
    and decision-index tables; each BCH strength's encode and syndrome
    tables, DECTED's t=2 included) equals, entry by entry, the
    per-value construction over the same map."""
    built = []

    def recording(fn, width):
        tables = byte_tables(fn, width)
        built.append((tables, _per_value_tables(fn, width)))
        return tables

    for module in (hamming, bch):
        monkeypatch.setattr(module, "byte_tables", recording)
    build()
    assert len(built) == calls
    for tables, oracle in built:
        assert [len(table) for table in tables] == [256] * len(oracle)
        assert tables == oracle

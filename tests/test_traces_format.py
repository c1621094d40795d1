"""Property and unit tests for the binary trace serialization."""

import io
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.events import MemoryAccess
from repro.taint.bittaint import BitTaint
from repro.traces import (
    FingerprintCapture,
    SPECIES_FINGERPRINT,
    SPECIES_MEMORY,
    TraceFormatError,
    TraceReader,
    TraceWriter,
    deserialize_records,
    read_trace_columns,
    serialize_records,
)
from repro.traces.format import (
    _HEADER,
    MAX_TAINT_BITS,
    read_svarint,
    read_uvarint,
    write_svarint,
    write_uvarint,
)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
def bittaints() -> st.SearchStrategy[BitTaint]:
    entry = st.tuples(
        st.integers(min_value=0, max_value=80),
        st.frozensets(st.integers(min_value=0, max_value=40_000),
                      min_size=1, max_size=4),
    )
    return st.builds(
        lambda entries: BitTaint(dict(entries)),
        st.lists(entry, max_size=5, unique_by=lambda e: e[0]),
    )


def memory_accesses() -> st.SearchStrategy[MemoryAccess]:
    return st.builds(
        MemoryAccess,
        seq=st.integers(min_value=0, max_value=1 << 40),
        kind=st.sampled_from(["read", "write", "update"]),
        array=st.sampled_from(["head", "htab", "ftab", "Te0", "block"]),
        index=st.integers(min_value=-(1 << 20), max_value=1 << 34),
        elem_size=st.sampled_from([1, 2, 4, 8]),
        # >32-bit addresses are the common case (the heap base is 47-bit)
        address=st.integers(min_value=0, max_value=(1 << 48) - 1),
        addr_taint=bittaints(),
        value_taint=bittaints(),
        site=st.sampled_from(
            ["deflate_slow/head[ins_h]", "lzw/htab[hp]", "mainSort/ftab", ""]
        ),
    )


def fingerprint_captures() -> st.SearchStrategy[FingerprintCapture]:
    def build(label, seed, rows, cols, bits):
        rng = np.random.default_rng(bits)
        trace = (rng.random((rows, cols)) < 0.2).astype(np.int8)
        return FingerprintCapture(label=label, capture_seed=seed, trace=trace)

    return st.builds(
        build,
        label=st.integers(min_value=-5, max_value=30),
        seed=st.integers(min_value=0, max_value=(1 << 63) - 1),
        rows=st.integers(min_value=1, max_value=3),
        cols=st.integers(min_value=1, max_value=400),
        bits=st.integers(min_value=0, max_value=1 << 32),
    )


def _same_access(a: MemoryAccess, b: MemoryAccess) -> bool:
    return (
        a.seq == b.seq
        and a.kind == b.kind
        and a.array == b.array
        and a.index == b.index
        and a.elem_size == b.elem_size
        and a.address == b.address
        and a.site == b.site
        and a.addr_taint == b.addr_taint
        and a.value_taint == b.value_taint
    )


# ----------------------------------------------------------------------
# Varint primitives
# ----------------------------------------------------------------------
class TestVarints:
    @given(st.integers(min_value=0, max_value=1 << 200))
    def test_uvarint_round_trip(self, value):
        out = bytearray()
        write_uvarint(out, value)
        got, pos = read_uvarint(memoryview(bytes(out)), 0)
        assert got == value and pos == len(out)

    @given(st.integers(min_value=-(1 << 100), max_value=1 << 100))
    def test_svarint_round_trip(self, value):
        out = bytearray()
        write_svarint(out, value)
        got, pos = read_svarint(memoryview(bytes(out)), 0)
        assert got == value and pos == len(out)

    def test_uvarint_rejects_negative(self):
        with pytest.raises(ValueError):
            write_uvarint(bytearray(), -1)

    def test_small_values_are_one_byte(self):
        out = bytearray()
        write_uvarint(out, 1)
        write_svarint(out, -1)
        assert len(out) == 2


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
class TestMemoryRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(memory_accesses(), max_size=60))
    def test_serialize_deserialize_identity(self, records):
        blob = serialize_records(SPECIES_MEMORY, records, chunk_records=7)
        back = deserialize_records(blob)
        assert len(back) == len(records)
        assert all(_same_access(a, b) for a, b in zip(records, back))

    def test_empty_trace(self):
        blob = serialize_records(SPECIES_MEMORY, [])
        assert deserialize_records(blob) == []

    def test_chunk_boundaries_do_not_matter(self):
        records = [
            MemoryAccess(seq=i, kind="read", array="head", index=i,
                         elem_size=2, address=0x7F00_0000_0000 + 64 * i,
                         site="s")
            for i in range(100)
        ]
        blobs = {
            serialize_records(SPECIES_MEMORY, records, chunk_records=n)
            for n in (1, 3, 100, 4096)
        }
        decoded = [deserialize_records(b) for b in blobs]
        for back in decoded:
            assert all(_same_access(a, b) for a, b in zip(records, back))

    def test_tainted_flag_survives(self):
        record = MemoryAccess(
            seq=1, kind="read", array="htab", index=9, elem_size=8,
            address=1 << 45, addr_taint=BitTaint.byte(3, lo_bit=9),
            site="lzw/htab[hp]",
        )
        (back,) = deserialize_records(
            serialize_records(SPECIES_MEMORY, [record])
        )
        assert bool(back.addr_taint)
        assert back.addr_taint.bits_of_tag(3) == list(range(9, 17))
        assert back.cache_line == record.cache_line


class TestFingerprintRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(fingerprint_captures(), max_size=10))
    def test_serialize_deserialize_identity(self, captures):
        blob = serialize_records(SPECIES_FINGERPRINT, captures, chunk_records=3)
        assert deserialize_records(blob) == captures

    def test_all_zero_and_all_one_tensors(self):
        captures = [
            FingerprintCapture(0, 1, np.zeros((2, 10_000), dtype=np.int8)),
            FingerprintCapture(1, 2, np.ones((2, 10_000), dtype=np.int8)),
        ]
        blob = serialize_records(SPECIES_FINGERPRINT, captures)
        assert deserialize_records(blob) == captures
        # Long constant runs compress to a handful of bytes.
        assert len(blob) < 100

    def test_rejects_non_boolean_tensor(self):
        capture = FingerprintCapture(0, 0, np.full((2, 4), 7, dtype=np.int8))
        with pytest.raises(ValueError):
            serialize_records(SPECIES_FINGERPRINT, [capture])


# ----------------------------------------------------------------------
# Corruption and misuse
# ----------------------------------------------------------------------
class TestCorruption:
    def _blob(self):
        records = [
            MemoryAccess(seq=i, kind="write", array="ftab", index=i,
                         elem_size=4, address=(1 << 44) + 4 * i, site="ftab")
            for i in range(50)
        ]
        return serialize_records(SPECIES_MEMORY, records)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_any_flipped_payload_byte_is_detected(self, data):
        blob = bytearray(self._blob())
        # Bytes past the header are covered by chunk CRCs (the header
        # has its own magic/version checks; its reserved byte is only
        # covered by the store-level sha256).
        offset = data.draw(
            st.integers(min_value=_HEADER.size, max_value=len(blob) - 1)
        )
        bit = data.draw(st.integers(min_value=0, max_value=7))
        blob[offset] ^= 1 << bit
        with pytest.raises(TraceFormatError):
            deserialize_records(bytes(blob))
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "t.trc"
            path.write_bytes(bytes(blob))
            with pytest.raises(TraceFormatError):
                read_trace_columns(path)

    def test_bad_magic(self):
        blob = bytearray(self._blob())
        blob[0] ^= 0xFF
        with pytest.raises(TraceFormatError, match="magic"):
            deserialize_records(bytes(blob))

    def test_unsupported_version(self):
        # Version 1 (no record directory) is no longer read either.
        for version in (2 ^ 0xFF, 1):
            blob = bytearray(self._blob())
            struct.pack_into("<H", blob, 4, version)
            with pytest.raises(TraceFormatError, match="unsupported trace format version"):
                deserialize_records(bytes(blob))

    def test_truncated_file(self):
        blob = self._blob()
        with pytest.raises(TraceFormatError, match="truncated"):
            deserialize_records(blob[: len(blob) - 3])

    def test_unknown_species_rejected_at_write(self):
        with pytest.raises(ValueError, match="species"):
            serialize_records("quantum", [])

    def test_writer_rejects_taint_past_cap(self):
        record = MemoryAccess(seq=1, addr_taint=BitTaint.byte(0, lo_bit=MAX_TAINT_BITS - 4))
        with pytest.raises(ValueError, match="past bit"):
            serialize_records(SPECIES_MEMORY, [record])

    def test_reader_is_single_pass(self):
        reader = TraceReader(io.BytesIO(self._blob()))
        assert len(list(reader)) == 50
        with pytest.raises(ValueError, match="single-pass"):
            list(reader)

    def test_writer_refuses_append_after_close(self):
        buffer = io.BytesIO()
        writer = TraceWriter(buffer, SPECIES_MEMORY)
        writer.close()
        with pytest.raises(ValueError, match="closed"):
            writer.append(MemoryAccess(seq=1))


class TestCompactness:
    def test_bzip2_scale_trace_stays_small(self):
        """A 10 KB-input bzip2 histogram trace is ~10k sequential
        accesses; delta+varint keeps it to a few bytes per record."""
        records = [
            MemoryAccess(
                seq=i + 1, kind="update", array="ftab", index=(i * 257) % 65536,
                elem_size=4, address=(0x7F00_0000_0000 + 4 * ((i * 257) % 65536)),
                addr_taint=BitTaint.of_bits(i % 256, range(2, 18)),
                site="mainSort/ftab[j]++",
            )
            for i in range(10_000)
        ]
        blob = serialize_records(SPECIES_MEMORY, records)
        assert len(blob) / len(records) < 24

"""Equivalence proofs for the columnar ZTRC decoder.

The columnar decoder (:mod:`repro.traces.columns`) has no authority of
its own: every column must equal, field for field, what the object
reader produces from the same bytes, for any chunking.  The Hypothesis
suites here pin exactly that, including the object-path fallback for
varints past int64, the run-domain pooling against ``pool_trace``, and
hostile files: mutated chunks with valid CRCs make each reader either
return or raise :class:`TraceFormatError`, and whenever both return,
they agree.
"""

import random
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.zipchannel.fingerprint import pool_trace
from repro.exec.events import MemoryAccess
from repro.taint.bittaint import BitTaint
from repro.traces import (
    FingerprintCapture,
    OracleProbe,
    SPECIES_FINGERPRINT,
    SPECIES_MEMORY,
    SPECIES_ORACLE,
    TraceFormatError,
    TraceStore,
    TraceWriter,
    count_trace_records,
    read_trace,
    read_trace_columns,
    replay_lines,
    replay_lines_array,
    serialize_records,
)
from repro.traces.columns import FingerprintColumns, _FingerprintRle
from repro.traces.format import (
    _CHUNK_HEADER,
    _HEADER,
    _SPECIES_CODES,
    FORMAT_VERSION,
    MAGIC,
    write_uvarint,
)
from tests.test_traces_format import fingerprint_captures, memory_accesses


def _write(path, species, records, chunk_records=7):
    with open(path, "wb") as handle:
        with TraceWriter(handle, species, chunk_records=chunk_records) as writer:
            writer.extend(records)


def _roundtrip(species, records, chunk_records):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "t.trc"
        _write(path, species, records, chunk_records)
        return read_trace_columns(path), read_trace(path), count_trace_records(path)


def _assert_memory_match(cols, objs):
    assert cols.n == len(objs)
    for i, r in enumerate(objs):
        assert int(cols.seq[i]) == r.seq
        assert cols.strings[int(cols.kind_id[i])] == r.kind
        assert cols.strings[int(cols.array_id[i])] == r.array
        assert int(cols.index[i]) == r.index
        assert int(cols.elem_size[i]) == r.elem_size
        assert int(cols.address[i]) == r.address
        assert cols.strings[int(cols.site_id[i])] == r.site
        assert bool(cols.addr_tainted[i]) == bool(r.addr_taint)
        assert bool(cols.value_tainted[i]) == bool(r.value_taint)


def _assert_fingerprint_match(cols, objs):
    assert cols.n == len(objs)
    assert cols.labels.tolist() == [c.label for c in objs]
    assert cols.capture_seeds.tolist() == [c.capture_seed for c in objs]
    for got, ref in zip(cols.traces, objs):
        assert got.shape == ref.trace.shape
        assert np.array_equal(got, ref.trace)


# ----------------------------------------------------------------------
# memory species
# ----------------------------------------------------------------------
class TestMemoryColumns:
    @settings(max_examples=40, deadline=None)
    @given(
        records=st.lists(memory_accesses(), max_size=40),
        chunk_records=st.sampled_from([1, 3, 7, 64]),
    )
    def test_columns_match_objects(self, records, chunk_records):
        cols, objs, counted = _roundtrip(SPECIES_MEMORY, records, chunk_records)
        assert counted == len(objs) == len(records)
        _assert_memory_match(cols, objs)

    @settings(max_examples=25, deadline=None)
    @given(
        records=st.lists(memory_accesses(), max_size=40),
        sites=st.one_of(
            st.none(),
            st.sets(
                st.sampled_from(
                    ["deflate_slow/head[ins_h]", "lzw/htab[hp]",
                     "mainSort/ftab", ""]
                ),
                max_size=3,
            ),
        ),
        kind=st.one_of(st.none(), st.sampled_from(["read", "write", "update"])),
    )
    def test_replay_lines_array_matches_objects(self, records, sites, kind):
        cols, objs, _ = _roundtrip(SPECIES_MEMORY, records, 7)
        expected = replay_lines(objs, sites=sites, kind=kind)
        got = replay_lines_array(cols, sites=sites, kind=kind)
        assert got.tolist() == expected

    def test_huge_address_falls_back_to_objects(self):
        # A 70-bit address overflows the int64 fast path; the decode
        # must transparently route through the object reader and keep
        # the exact value in an object-dtype column.
        record = MemoryAccess(
            seq=1, kind="read", array="head", index=2, elem_size=2,
            address=1 << 70, addr_taint=BitTaint.byte(0), site="s",
        )
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "t.trc"
            _write(path, SPECIES_MEMORY, [record])
            cols = read_trace_columns(path)
        assert cols.address.dtype == object
        assert cols.address[0] == 1 << 70
        assert bool(cols.addr_tainted[0])

    def test_empty_trace(self):
        cols, objs, counted = _roundtrip(SPECIES_MEMORY, [], 7)
        assert cols.n == 0 and objs == [] and counted == 0


# ----------------------------------------------------------------------
# fingerprint species
# ----------------------------------------------------------------------
class TestFingerprintColumns:
    @settings(max_examples=40, deadline=None)
    @given(
        captures=st.lists(fingerprint_captures(), max_size=8),
        chunk_records=st.sampled_from([1, 3, 64]),
    )
    def test_columns_match_objects(self, captures, chunk_records):
        cols, objs, counted = _roundtrip(SPECIES_FINGERPRINT, captures, chunk_records)
        assert counted == len(objs)
        _assert_fingerprint_match(cols, objs)

    @settings(max_examples=40, deadline=None)
    @given(
        captures=st.lists(fingerprint_captures(), min_size=1, max_size=6),
        width=st.integers(min_value=1, max_value=500),
    )
    def test_pooled_matches_pool_trace(self, captures, width):
        cols, objs, _ = _roundtrip(SPECIES_FINGERPRINT, captures, 3)
        shapes = {c.trace.shape for c in objs}
        pooled = cols.pooled(width)
        if len(shapes) != 1 or next(iter(shapes))[1] // width < 1:
            assert pooled is None
            return
        assert pooled is not None
        ref = np.stack([pool_trace(c.trace, width) for c in objs])
        assert pooled.dtype == np.int8
        assert np.array_equal(pooled, ref)

    def test_pooled_constant_tensors(self):
        captures = [
            FingerprintCapture(0, 1, np.zeros((2, 40), dtype=np.int8)),
            FingerprintCapture(1, 2, np.ones((2, 40), dtype=np.int8)),
        ]
        cols, objs, _ = _roundtrip(SPECIES_FINGERPRINT, captures, 3)
        for width in (1, 3, 10, 40):
            ref = np.stack([pool_trace(c.trace, width) for c in objs])
            assert np.array_equal(cols.pooled(width), ref)

    def test_pooled_ignores_empty_runs(self):
        # Runs 3 zeros, 0 ones, 7 zeros: an all-zero 1x10 capture.
        rle = _FingerprintRle(shapes=[(1, 10)], starts=[0], runs=[np.array([3, 0, 7])])
        cols = FingerprintColumns(np.array([0]), np.array([0]), _rle=rle)
        assert not cols.traces[0].any()
        for width in (1, 2, 5, 10):
            assert not cols.pooled(width).any()


# ----------------------------------------------------------------------
# hostile input: mutated chunks whose CRCs still check out
# ----------------------------------------------------------------------
def _payload_offsets(blob: bytes) -> list[int]:
    """Byte offsets inside chunk payloads (the framing stays intact)."""
    offsets, pos = [], _HEADER.size
    while pos < len(blob):
        length, _ = _CHUNK_HEADER.unpack_from(blob, pos)
        pos += _CHUNK_HEADER.size
        offsets.extend(range(pos, pos + length))
        pos += length
    return offsets


def _fix_crcs(blob: bytearray) -> bytes:
    pos = _HEADER.size
    while pos < len(blob):
        length, _ = _CHUNK_HEADER.unpack_from(blob, pos)
        payload = bytes(blob[pos + _CHUNK_HEADER.size : pos + _CHUNK_HEADER.size + length])
        _CHUNK_HEADER.pack_into(blob, pos, length, zlib.crc32(payload))
        pos += _CHUNK_HEADER.size + length
    return bytes(blob)


def _write_one_record(path, species, fields, flags=0, strings=()):
    """A one-chunk, one-record trace whose record is the given varints,
    after a string table of the given raw byte strings."""
    record = bytearray()
    for value in fields:
        write_uvarint(record, value)
    payload = bytearray()
    write_uvarint(payload, len(strings))
    for raw in strings:
        write_uvarint(payload, len(raw))
        payload += raw
    for value in (1, 1, (len(record) << 2) | flags):
        write_uvarint(payload, value)
    chunk = bytes(payload + record)
    path.write_bytes(
        _HEADER.pack(MAGIC, FORMAT_VERSION, _SPECIES_CODES[species], 0)
        + _CHUNK_HEADER.pack(len(chunk), zlib.crc32(chunk))
        + chunk
    )


def _or_format_error(decode, path):
    """The decode result, or None when it raised TraceFormatError (any
    other exception fails the test)."""
    try:
        return decode(path)
    except TraceFormatError:
        return None


class TestHostileInput:
    @settings(max_examples=300, deadline=None)
    @given(
        species=st.sampled_from([SPECIES_MEMORY, SPECIES_FINGERPRINT]),
        chunk_records=st.sampled_from([1, 4, 64]),
        seed=st.integers(min_value=0, max_value=2**32),
        data=st.data(),
    )
    def test_mutated_chunks_decode_alike_or_raise(self, species, chunk_records, seed, data):
        strategy = memory_accesses() if species == SPECIES_MEMORY else fingerprint_captures()
        records = data.draw(st.lists(strategy, min_size=1, max_size=10))
        blob = serialize_records(species, records, chunk_records=chunk_records)
        # Mutations come from a seeded RNG so they spread uniformly over
        # the payload; half are single-bit flips (directory flag bits,
        # varint continuation bits), half arbitrary XOR masks.
        rng = random.Random(seed)
        offsets = _payload_offsets(blob)
        mutated = bytearray(blob)
        for _ in range(rng.randint(1, 3)):
            mask = 1 << rng.randrange(8) if rng.random() < 0.5 else rng.randint(1, 255)
            mutated[rng.choice(offsets)] ^= mask
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "t.trc"
            path.write_bytes(_fix_crcs(mutated))
            objs = _or_format_error(read_trace, path)
            cols = _or_format_error(read_trace_columns, path)
            counted = _or_format_error(count_trace_records, path)
        if objs is None:
            return
        assert counted == len(objs)
        if cols is not None:
            if species == SPECIES_MEMORY:
                _assert_memory_match(cols, objs)
            else:
                _assert_fingerprint_match(cols, objs)

    # A memory record's seq, kind, array, index, elem_size, address and
    # site fields, all naming string 0.
    _ACCESS = (0, 0, 0, 0, 1, 0, 0)

    def test_invalid_utf8_string_is_a_format_error(self, tmp_path):
        path = tmp_path / "t.trc"
        _write_one_record(path, SPECIES_MEMORY, self._ACCESS + (0, 0), strings=(b"\xff",))
        for decode in (read_trace, read_trace_columns, count_trace_records):
            with pytest.raises(TraceFormatError, match="not UTF-8"):
                decode(path)

    @pytest.mark.parametrize(
        "fields, match",
        [
            # A 33-byte file whose one capture claims a 2**23 x 2**23
            # tensor covered by a single one-sample run.
            ((0, 0, 1 << 23, 1 << 23, 0, 1, 1), "runs cover 1 of"),
            # An empty tensor with more rows than numpy can index.
            ((0, 0, 1 << 64, 0), "out of range"),
        ],
    )
    def test_fingerprint_shape_checked_before_allocation(self, tmp_path, fields, match):
        path = tmp_path / "t.trc"
        _write_one_record(path, SPECIES_FINGERPRINT, fields)
        for decode in (read_trace, read_trace_columns):
            with pytest.raises(TraceFormatError, match=match):
                decode(path)

    def test_taint_run_length_is_bounded(self, tmp_path):
        # An address taint of one 2**40-bit run with tag 0, and no
        # value taint: decoding it would build a 2**40-entry bit map.
        fields = self._ACCESS + (1, 0, 1 << 40, 1, 0) + (0,)
        path = tmp_path / "t.trc"
        _write_one_record(path, SPECIES_MEMORY, fields, flags=0b10, strings=(b"s",))
        with pytest.raises(TraceFormatError, match="reaches past bit"):
            read_trace(path)

    def test_taint_flag_must_match_directory(self, tmp_path):
        # An 8-bit address taint, but a directory entry with no flags.
        fields = self._ACCESS + (1, 0, 8, 1, 0) + (0,)
        path = tmp_path / "t.trc"
        _write_one_record(path, SPECIES_MEMORY, fields, strings=(b"s",))
        with pytest.raises(TraceFormatError, match="taint flags disagree"):
            read_trace(path)
        assert not read_trace_columns(path).addr_tainted[0]


# ----------------------------------------------------------------------
# species coverage and store integration
# ----------------------------------------------------------------------
class TestEntryPoints:
    def test_oracle_species_is_refused(self):
        probes = [OracleProbe(0, "a", 3, -1.0, 7)]
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "t.trc"
            _write(path, SPECIES_ORACLE, probes)
            with pytest.raises(ValueError, match="no columnar decoder"):
                read_trace_columns(path)

    def test_store_count_and_verify_use_chunk_headers(self):
        records = [
            MemoryAccess(seq=i, kind="read", array="head", index=i,
                         elem_size=2, address=(1 << 44) + 64 * i, site="s")
            for i in range(25)
        ]
        with tempfile.TemporaryDirectory() as scratch:
            store = TraceStore(scratch).open()
            with store.create("t", SPECIES_MEMORY, chunk_records=4) as writer:
                writer.extend(records)
            assert store.count_records("t") == 25
            assert store.get("t").n_records == 25
            report = store.verify("t")[0]
            assert report.ok, report
            cols = store.read_columns("t")
            assert cols.n == 25
            assert cols.address.tolist() == [r.address for r in records]

"""Property-based round-trip tests: address interleaving, packed trace
encoding, and the vectorized batch decode are exact inverses (or exact
mirrors) across their whole domains."""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import (
    ddr4_3200_config,
    ddr5_4800_config,
    hbm2_config,
    hbm3_config,
)
from repro.mem.address import AddressMapper, DecodedAddress
from repro.sim.request import CACHE_LINE_BYTES
from repro.sim.stats import Histogram
from repro.sim.vectorized import decode_epoch
from repro.traces.packed import (
    ICOUNT_MAX,
    LINE_MAX,
    PackedTrace,
    decode_value,
    encode_request,
)

MIB = 1 << 20
CONFIGS = [hbm2_config, ddr4_3200_config, hbm3_config, ddr5_4800_config]
CAPACITIES = [4 * MIB, 8 * MIB, 40 * MIB]


class TestAddressRoundTrip:
    @pytest.mark.parametrize("make_config", CONFIGS)
    @pytest.mark.parametrize("capacity", CAPACITIES)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_encode_inverts_decode(self, make_config, capacity, data):
        """decode -> encode reproduces every in-range address exactly."""
        mapper = AddressMapper(make_config(capacity).geometry)
        addr = data.draw(st.integers(0, capacity - 1))
        decoded = mapper.decode(addr)
        assert mapper.encode(decoded) == addr

    @pytest.mark.parametrize("make_config", CONFIGS)
    def test_boundary_addresses(self, make_config):
        capacity = 8 * MIB
        mapper = AddressMapper(make_config(capacity).geometry)
        g = mapper.geometry
        boundaries = {0, 1, capacity - 1,
                      g.interleave_bytes - 1, g.interleave_bytes,
                      g.row_bytes - 1, g.row_bytes,
                      capacity - g.interleave_bytes}
        for addr in boundaries:
            assert mapper.encode(mapper.decode(addr)) == addr

    @pytest.mark.parametrize("make_config", CONFIGS)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_decode_inverts_encode(self, make_config, data):
        """Any legal coordinate tuple round-trips through the flat
        address space (the mapping is a bijection, not just injective)."""
        g = make_config(8 * MIB).geometry
        mapper = AddressMapper(g)
        rows = 8 * MIB // g.channels // g.banks_per_channel // g.row_bytes
        decoded = DecodedAddress(
            channel=data.draw(st.integers(0, g.channels - 1)),
            bank=data.draw(st.integers(0, g.banks_per_channel - 1)),
            row=data.draw(st.integers(0, rows - 1)),
            column_byte=data.draw(st.integers(0, g.row_bytes - 1)))
        assert mapper.decode(mapper.encode(decoded)) == decoded

    def test_encode_rejects_out_of_range(self):
        mapper = AddressMapper(hbm2_config(8 * MIB).geometry)
        g = mapper.geometry
        with pytest.raises(ValueError):
            mapper.encode(DecodedAddress(channel=g.channels, bank=0,
                                         row=0, column_byte=0))
        with pytest.raises(ValueError):
            mapper.encode(DecodedAddress(channel=0, bank=0, row=0,
                                         column_byte=g.row_bytes))


class TestPackedRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(line=st.integers(0, LINE_MAX),
           is_write=st.booleans(),
           icount=st.integers(0, ICOUNT_MAX))
    def test_request_roundtrip(self, line, is_write, icount):
        addr = line * CACHE_LINE_BYTES
        value = encode_request(addr, is_write, icount)
        assert 0 <= value < (1 << 64)  # fits an array('Q') slot
        assert decode_value(value) == (addr, is_write, icount)

    @pytest.mark.parametrize("line", [0, 1, LINE_MAX - 1, LINE_MAX])
    @pytest.mark.parametrize("icount", [0, 1, ICOUNT_MAX - 1, ICOUNT_MAX])
    @pytest.mark.parametrize("is_write", [False, True])
    def test_bit_budget_boundaries(self, line, icount, is_write):
        """The extreme corners of every packed field survive exactly —
        no field bleeds into a neighbour's bits."""
        addr = line * CACHE_LINE_BYTES
        value = encode_request(addr, is_write, icount)
        assert decode_value(value) == (addr, is_write, icount)

    def test_out_of_budget_rejected(self):
        with pytest.raises(ValueError):
            encode_request((LINE_MAX + 1) * CACHE_LINE_BYTES, False, 1)
        with pytest.raises(ValueError):
            encode_request(0, False, ICOUNT_MAX + 1)
        with pytest.raises(ValueError):
            encode_request(CACHE_LINE_BYTES + 1, False, 1)


_REQUEST = st.tuples(st.integers(0, LINE_MAX), st.booleans(),
                     st.integers(0, ICOUNT_MAX))


def _pack(requests):
    return PackedTrace(array("Q", [
        encode_request(line * CACHE_LINE_BYTES, is_write, icount)
        for line, is_write, icount in requests]))


class TestBatchDecode:
    @settings(max_examples=100, deadline=None)
    @given(requests=st.lists(_REQUEST, min_size=1, max_size=64),
           data=st.data())
    def test_batch_decode_matches_scalar(self, requests, data):
        """Any epoch window of the numpy decode equals per-value
        ``decode_value`` — same addresses, flags, and icounts."""
        trace = _pack(requests)
        start = data.draw(st.integers(0, len(trace) - 1))
        stop = data.draw(st.integers(start + 1, len(trace)))
        addr, is_write, icount = decode_epoch(trace, start, stop)
        expected = [decode_value(value)
                    for value in trace.data[start:stop]]
        assert list(zip(addr.tolist(), is_write.tolist(),
                        icount.tolist())) == expected

    @pytest.mark.parametrize("line", [0, 1, LINE_MAX - 1, LINE_MAX])
    @pytest.mark.parametrize("icount", [0, 1, ICOUNT_MAX - 1, ICOUNT_MAX])
    @pytest.mark.parametrize("is_write", [False, True])
    def test_bit_budget_corners(self, line, icount, is_write):
        """The extreme packed-field corners survive the uint64 ->
        int64 casts of the batch decode without sign or width loss."""
        trace = _pack([(line, is_write, icount)])
        addr, write_arr, icount_arr = decode_epoch(trace)
        assert (int(addr[0]), bool(write_arr[0]), int(icount_arr[0])) \
            == (line * CACHE_LINE_BYTES, is_write, icount)


class TestHistogramAddMany:
    BOUNDS = [10.0, 20.0, 50.0, 100.0]

    @settings(max_examples=100, deadline=None)
    @given(samples=st.lists(
        st.one_of(st.floats(0.0, 200.0, allow_nan=False),
                  st.sampled_from([10.0, 20.0, 50.0, 100.0])),
        max_size=64))
    def test_add_many_equals_repeated_add(self, samples):
        """Bulk binning lands every sample — including values exactly
        on a bucket bound — in the same bucket as scalar ``add``."""
        one_by_one = Histogram(bounds=list(self.BOUNDS))
        for sample in samples:
            one_by_one.add(sample)
        bulk = Histogram(bounds=list(self.BOUNDS))
        bulk.add_many(samples)
        assert bulk == one_by_one
        assert bulk.total == len(samples)

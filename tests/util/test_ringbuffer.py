"""Tests for repro.util.ringbuffer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.ringbuffer import RingBuffer, read_ring, write_ring
from repro.util.validation import ValidationError


class TestRingBufferBasics:
    def test_empty_buffer(self):
        rb = RingBuffer(4)
        assert len(rb) == 0
        assert rb.is_empty
        assert not rb.is_full
        assert rb.capacity == 4
        assert rb.to_array().size == 0

    def test_push_below_capacity(self):
        rb = RingBuffer(4)
        rb.push(1.0)
        rb.push(2.0)
        assert len(rb) == 2
        assert rb.to_array().tolist() == [1.0, 2.0]

    def test_push_evicts_oldest(self):
        rb = RingBuffer(3)
        rb.extend([1, 2, 3, 4, 5])
        assert rb.is_full
        assert rb.to_array().tolist() == [3.0, 4.0, 5.0]

    def test_extend_matches_repeated_push(self):
        a = RingBuffer(5)
        b = RingBuffer(5)
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        a.extend(values)
        for v in values:
            b.push(v)
        assert a.to_array().tolist() == b.to_array().tolist()

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValidationError):
            RingBuffer(0)
        with pytest.raises(ValidationError):
            RingBuffer(-3)

    def test_integer_dtype(self):
        rb = RingBuffer(3, dtype=np.int64)
        rb.extend([10, 20, 30])
        assert rb.dtype == np.int64
        assert rb.to_array().dtype == np.int64


class TestRingBufferAccess:
    def test_getitem_chronological(self):
        rb = RingBuffer(3)
        rb.extend([1, 2, 3, 4])
        assert rb[0] == 2.0
        assert rb[1] == 3.0
        assert rb[2] == 4.0
        assert rb[-1] == 4.0

    def test_getitem_out_of_range(self):
        rb = RingBuffer(3)
        rb.push(1.0)
        with pytest.raises(IndexError):
            rb[1]
        with pytest.raises(IndexError):
            rb[-2]

    def test_newest(self):
        rb = RingBuffer(5)
        rb.extend([1, 2, 3, 4, 5])
        assert rb.newest(2).tolist() == [4.0, 5.0]
        assert rb.newest().tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert rb.newest(0).size == 0

    def test_newest_negative_rejected(self):
        rb = RingBuffer(3)
        rb.push(1.0)
        with pytest.raises(ValueError):
            rb.newest(-1)

    def test_iteration_order(self):
        rb = RingBuffer(3)
        rb.extend([5, 6, 7, 8])
        assert list(rb) == [6.0, 7.0, 8.0]


class TestRingBufferResizeAndClear:
    def test_clear(self):
        rb = RingBuffer(3)
        rb.extend([1, 2, 3])
        rb.clear()
        assert len(rb) == 0
        assert rb.capacity == 3

    def test_resize_shrink_keeps_newest(self):
        rb = RingBuffer(6)
        rb.extend([1, 2, 3, 4, 5, 6])
        rb.resize(3)
        assert rb.capacity == 3
        assert rb.to_array().tolist() == [4.0, 5.0, 6.0]

    def test_resize_grow_keeps_content(self):
        rb = RingBuffer(3)
        rb.extend([1, 2, 3, 4])
        rb.resize(6)
        assert rb.capacity == 6
        assert rb.to_array().tolist() == [2.0, 3.0, 4.0]
        rb.extend([5, 6, 7])
        assert rb.to_array().tolist() == [2.0, 3.0, 4.0, 5.0, 6.0, 7.0]

    def test_push_after_resize_wraps_correctly(self):
        rb = RingBuffer(4)
        rb.extend([1, 2, 3, 4, 5])
        rb.resize(2)
        rb.push(9)
        assert rb.to_array().tolist() == [5.0, 9.0]


class TestRingFunctions:
    """``write_ring``/``read_ring``: the ring layout of the banks and the
    event engine, checked against the list of everything pushed."""

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(1, 9),
        chunks=st.lists(st.integers(0, 20), max_size=8),
        rows=st.integers(1, 3),
    )
    def test_chunks_match_the_pushed_suffix(self, capacity, chunks, rows):
        buffers = np.zeros((rows, capacity), dtype=np.int64)
        head = fill = 0
        pushed = np.zeros((rows, 0), dtype=np.int64)
        for length in chunks:
            start = pushed.shape[1]
            cols = np.arange(start, start + length) + 100 * np.arange(rows)[:, None]
            ext = read_ring(buffers, head, fill, cols)
            np.testing.assert_array_equal(ext, np.hstack((pushed[:, start - fill :], cols)))
            out = np.full((rows, fill + length), -1, dtype=np.int64)
            assert read_ring(buffers, head, fill, cols, out) is out
            np.testing.assert_array_equal(out, ext)
            head = write_ring(buffers, head, cols)
            fill = min(capacity, fill + length)
            pushed = np.hstack((pushed, cols))
            assert head == pushed.shape[1] % capacity
            np.testing.assert_array_equal(
                read_ring(buffers, head, fill), pushed[:, pushed.shape[1] - fill :]
            )

    def test_one_dimensional_ring(self):
        buffers = np.zeros(4, dtype=np.int64)
        head = write_ring(buffers, 0, np.arange(6))
        assert read_ring(buffers, head, 4, np.array([9])).tolist() == [2, 3, 4, 5, 9]

"""A fixed-capacity ring buffer backed by a NumPy array.

The dynamic periodicity detector keeps a sliding *data window* of the last
``N`` samples of the monitored stream (Section 3.1 of the paper).  The
window is implemented as a ring buffer so that pushing one sample is O(1)
and reading the window in chronological order is a cheap, vectorised copy.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.util.validation import check_positive_int

__all__ = ["RingBuffer", "read_ring", "write_ring"]


def write_ring(buffers: np.ndarray, head: int, cols: np.ndarray) -> int:
    """Push ``cols`` into the ring(s) ``buffers`` at ``head``, in order.

    ``buffers`` is ``(..., capacity)`` and ``cols`` is ``(..., length)``
    for any ``length``: the slots end exactly as ``length`` single pushes
    would leave them.  Returns the new head.
    """
    capacity = buffers.shape[-1]
    length = cols.shape[-1]
    end = head + length
    if length >= capacity:
        # Only the newest `capacity` columns survive; column j of the
        # batch lands in slot (head + j) % capacity.
        buffers[...] = np.roll(cols[..., -capacity:], end % capacity, axis=-1)
    elif end <= capacity:
        buffers[..., head:end] = cols
    else:
        split = capacity - head
        buffers[..., head:] = cols[..., :split]
        buffers[..., : end - capacity] = cols[..., split:]
    return end % capacity


def read_ring(
    buffers: np.ndarray,
    head: int,
    fill: int,
    cols: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The ring(s) ``buffers`` oldest first, followed by ``cols``.

    ``fill`` slots hold data and ``head`` is the next write slot (equal
    to ``fill`` until the ring is full), as :func:`write_ring` leaves
    them.  Returns a new ``(..., fill + length)`` array, or writes into
    ``out`` of that shape and returns it.
    """
    length = 0 if cols is None else cols.shape[-1]
    if out is None:
        out = np.empty(buffers.shape[:-1] + (fill + length,), dtype=buffers.dtype)
    out[..., : fill - head] = buffers[..., head:fill]
    out[..., fill - head : fill] = buffers[..., :head]
    if length:
        out[..., fill:] = cols
    return out


class RingBuffer:
    """Fixed-capacity circular buffer of floating-point samples.

    Parameters
    ----------
    capacity:
        Maximum number of samples retained.  Once full, pushing a new
        sample silently evicts the oldest one.
    dtype:
        NumPy dtype of the backing storage.  The detector uses ``float64``
        for sampled magnitudes and ``int64`` for event identifiers.

    Examples
    --------
    >>> rb = RingBuffer(3)
    >>> for v in [1.0, 2.0, 3.0, 4.0]:
    ...     rb.push(v)
    >>> rb.to_array().tolist()
    [2.0, 3.0, 4.0]
    """

    __slots__ = ("_data", "_capacity", "_size", "_head")

    def __init__(self, capacity: int, dtype: np.dtype | type = np.float64) -> None:
        check_positive_int(capacity, "capacity")
        self._capacity = int(capacity)
        self._data = np.zeros(self._capacity, dtype=dtype)
        self._size = 0
        self._head = 0  # index of the next write position

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Maximum number of samples the buffer holds."""
        return self._capacity

    @property
    def dtype(self) -> np.dtype:
        """Dtype of the backing storage."""
        return self._data.dtype

    def __len__(self) -> int:
        return self._size

    @property
    def is_full(self) -> bool:
        """Whether the buffer has reached its capacity."""
        return self._size == self._capacity

    @property
    def is_empty(self) -> bool:
        """Whether the buffer holds no samples."""
        return self._size == 0

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def push(self, value: float) -> None:
        """Append ``value``, evicting the oldest sample when full."""
        self._data[self._head] = value
        self._head = (self._head + 1) % self._capacity
        if self._size < self._capacity:
            self._size += 1

    def extend(self, values: Iterable[float]) -> None:
        """Append every element of ``values`` in order."""
        for value in values:
            self.push(value)

    def clear(self) -> None:
        """Drop all samples (capacity is unchanged)."""
        self._size = 0
        self._head = 0

    def resize(self, capacity: int) -> None:
        """Change the capacity, keeping the most recent samples.

        This implements the behaviour required by ``DPDWindowSize``: the
        window can shrink once a satisfying periodicity has been found, or
        grow when larger periods must be captured.  The newest
        ``min(len(self), capacity)`` samples are preserved.
        """
        check_positive_int(capacity, "capacity")
        current = self.to_array()
        kept = current[-capacity:]
        self._capacity = int(capacity)
        self._data = np.zeros(self._capacity, dtype=self._data.dtype)
        self._size = len(kept)
        self._data[: self._size] = kept
        self._head = self._size % self._capacity

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def to_array(self) -> np.ndarray:
        """Return the samples in chronological order (oldest first)."""
        if self._size < self._capacity:
            return self._data[: self._size].copy()
        return np.concatenate((self._data[self._head :], self._data[: self._head]))

    def newest(self, count: int | None = None) -> np.ndarray:
        """Return the ``count`` most recent samples (all when ``None``)."""
        arr = self.to_array()
        if count is None:
            return arr
        if count < 0:
            raise ValueError("count must be non-negative")
        return arr[-count:] if count else arr[:0]

    def __getitem__(self, index: int) -> float:
        """Return the ``index``-th sample in chronological order."""
        if not -self._size <= index < self._size:
            raise IndexError(f"index {index} out of range for size {self._size}")
        if index < 0:
            index += self._size
        if self._size < self._capacity:
            return float(self._data[index])
        return float(self._data[(self._head + index) % self._capacity])

    def __iter__(self) -> Iterator[float]:
        return iter(self.to_array())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"RingBuffer(capacity={self._capacity}, size={self._size}, "
            f"dtype={self._data.dtype})"
        )

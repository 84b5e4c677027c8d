"""Order statistics of many ranges of one array: the position of the k-th
smallest of values[lo:hi] for every query (lo, hi, k) at once.

`quality`'s bound test asks for window quartiles and `performance`'s trough
search for window minima. Both use `WaveletMatrix`, and this module loads
nothing else, so a command that runs only one of them loads only that one.
"""

from __future__ import annotations

import numpy as np

# Every query ends by sorting the ranks of at most BUCKET samples.
BUCKET_BITS = 5
BUCKET = 1 << BUCKET_BITS
# Queries gathered and sorted at a time, so the gathered rows take at most
# CHUNK * BUCKET ranks of memory.
CHUNK = 2048


class WaveletMatrix:
    """Positions of the k-th smallest (0-based) of values[lo:hi], for many
    queries (lo, hi, k) at once.

    Every sample gets its rank in a stable sort of the values, so of equal
    values the earlier position ranks first: with k = 0 a tie resolves to
    the earliest position, as `np.argmin` does. A query over at most
    `BUCKET` samples gathers their ranks and sorts them; column k holds the
    rank of the answer.

    A wider query walks a wavelet matrix over the ranks, one level per bit
    of the rank, most significant first, down to bit `BUCKET_BITS`. At each
    level the samples are stably split by that bit, zeros first, and the
    level's table counts the zeros before every range boundary: a boundary
    i with z zeros before it lands at z on the next level when a query
    follows the zeros, and at i + (the level's zeros) - z when it follows
    the ones. A query whose k lies past the zeros of its range takes the
    ones, and its k drops by those zeros. After the last level the range
    holds the samples whose ranks share the query's bucket of `BUCKET`
    ranks, at most that many, still in position order; the query gathers
    and sorts those. The tables hold ceil(log2 n) - `BUCKET_BITS` rows of
    n + 1 integers, 4 bytes each below 2**30 samples, and are built when
    a query first needs them: a series whose queries all span at most
    `BUCKET` samples builds none.
    """

    def __init__(self, values: np.ndarray):
        n = len(values)
        self._index = np.int32 if n < 2**30 else np.int64  # the split sums reach 2n
        self.order = np.argsort(values, kind="stable")
        self.ranks = np.empty(n, dtype=self._index)
        self.ranks[self.order] = np.arange(n, dtype=self._index)
        self._levels = max(0, (n - 1).bit_length() - BUCKET_BITS)
        self._zeros: np.ndarray | None = None  # zeros[d, i]: bit-0 samples before boundary i
        self._last = self.ranks  # the ranks in the last level's order

    def _build(self) -> None:
        level = self.ranks
        ones_base = np.arange(len(level), dtype=self._index)
        self._zeros = np.zeros((self._levels, len(level) + 1), dtype=self._index)
        for depth in range(self._levels):
            zero = (level & (1 << (self._levels - 1 - depth + BUCKET_BITS))) == 0
            before = self._zeros[depth]
            np.cumsum(zero, out=before[1:])
            # the stable split: sample i moves to where boundary i lands
            split = np.empty_like(level)
            split[np.where(zero, before[:-1], ones_base + before[-1] - before[:-1])] = level
            level = split
        self._last = level

    def _walk(self, lo: np.ndarray, hi: np.ndarray,
              k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each query's range and k on the last level."""
        if self._zeros is None:
            self._build()
        bounds = np.stack((lo, hi))
        k = k.astype(np.int64)
        for before in self._zeros:
            zeros_before = before.take(bounds).astype(np.int64)
            zeros = zeros_before[1] - zeros_before[0]
            up = k >= zeros
            k -= zeros * up
            # to zeros_before, or past the level's zeros by the ones before
            bounds = zeros_before + up * (bounds - 2 * zeros_before + before[-1])
        return bounds[0], bounds[1], k

    def kth_smallest(self, lo: np.ndarray, hi: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Positions of the k-th smallest of values[lo:hi], 0 <= k < hi - lo.
        `k` holds one rank per range, or a row of ranks per range; the result
        has its shape. The rows to sort are gathered `CHUNK` at a time."""
        ks = k if k.ndim == 2 else k[:, None]
        at = np.empty(ks.shape, dtype=np.int64)
        step = max(1, CHUNK // ks.shape[1])  # each rank of a wide range sorts its own row
        for start in range(0, len(ks), step):
            chunk = slice(start, start + step)
            at[chunk] = self.order[self._chunk_ranks(lo[chunk], hi[chunk], ks[chunk])]
        return at.reshape(k.shape)

    def _chunk_ranks(self, lo: np.ndarray, hi: np.ndarray, k: np.ndarray) -> np.ndarray:
        """The ranks of the k-th smallest of values[lo:hi], for a row of ks per range."""
        rank = np.empty(k.shape, dtype=np.int64)
        narrow = hi - lo <= BUCKET
        rank[narrow] = _kth_of_rows(self.ranks, lo[narrow], hi[narrow], k[narrow])
        wide = ~narrow
        if wide.any():
            each = k.shape[1]
            end_lo, end_hi, end_k = self._walk(np.repeat(lo[wide], each),
                                               np.repeat(hi[wide], each), k[wide].ravel())
            rank[wide] = _kth_of_rows(self._last, end_lo, end_hi, end_k[:, None]).reshape(-1, each)
        return rank

    def bucket_edges(self, lo: np.ndarray, hi: np.ndarray,
                     k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions of the smallest and the largest rank of the bucket that
        holds the k-th smallest of values[lo:hi], 0 <= k < hi - lo: the values
        there bound it from below and from above, with no row sorted."""
        end_lo = self._walk(lo, hi, k)[0]
        # every rank left in a query's range lies in its bucket
        first = self._last[end_lo] >> BUCKET_BITS << BUCKET_BITS
        return self.order[first], self.order[np.minimum(first + BUCKET - 1, len(self.order) - 1)]


def _kth_of_rows(sequence: np.ndarray, lo: np.ndarray, hi: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The k[i, j]-th smallest of each sequence[lo[i]:hi[i]], a range of at
    most `BUCKET` distinct ranks: each range gathered as a row, padded past
    its end with a rank above all others, and sorted."""
    count = hi - lo
    columns = np.arange(count.max(initial=0))
    rows = sequence.take(lo[:, None] + columns, mode="clip")
    rows[columns >= count[:, None]] = len(sequence)
    rows.sort(axis=1)
    return rows[np.arange(len(k))[:, None], k]

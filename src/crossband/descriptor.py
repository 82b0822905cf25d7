"""Per-corner edge descriptors and their cross-spectral similarity score.

A descriptor is a square window of the binary edge raster plus the quantized
gradient directions around a corner. Two descriptors are scored by counting
co-located edge pixels whose directions agree within one bin, normalized by
the square root of the candidate's edge count (the normalization is
deliberately one-sided, so the score is asymmetric).

Because gradient directions rotate by half a circle when one image's
contrast is inverted, the direct score collapses on polarity-reversed
content; matching can therefore also be run in a polarity-tolerant mode that
additionally scores each pair under a half-circle direction shift and keeps
the better of the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import sparse

from .edges import DIRECTION_BINS, EdgeMap

DEFAULT_WINDOW = 31
POLARITIES = ("direct", "flipped", "both")
_BLOCK_BYTES = 1 << 22  # dense candidate side of score_matrix, per block
# edge pixels per block of sources: _source_rows holds about 64 bytes of
# index temporaries per edge pixel
_SOURCE_EDGES = _BLOCK_BYTES // 64


def _check_window(window: int) -> None:
    # at most 4095: a score counts at most window**2 < 2**24 pixels, which
    # float32 sums hold exactly
    if window < 5 or window % 2 == 0 or window > 4095:
        raise ValueError(f"window must be odd and in [5, 4095], got {window}")


@dataclass(frozen=True)
class MatchingConfig:
    """Descriptor window and polarity mode used to match two bands."""
    window: int = field(default=DEFAULT_WINDOW, metadata={
        "key": "descriptor.window", "help": "odd descriptor window side"})
    polarity: str = field(default="both", metadata={
        "key": "matching.polarity", "choices": POLARITIES,
        "help": "direction handling: direct, flipped, or both"})

    def __post_init__(self):
        _check_window(self.window)
        if self.polarity not in POLARITIES:
            raise ValueError(f"unknown polarity mode {self.polarity!r}")


@dataclass(frozen=True)
class EdgeDescriptor:
    x: int
    y: int
    edges: np.ndarray       # (window, window) uint8, 1 = edge pixel
    directions: np.ndarray  # (window, window) uint8 direction bins
    edge_count: int

    @property
    def window(self) -> int:
        return self.edges.shape[0]


class _Windows(NamedTuple):
    """Descriptors as arrays, one row per descriptor. The score reads
    these; build_descriptors' EdgeDescriptors are views of their rows."""
    xs: np.ndarray          # (n,) corner columns
    ys: np.ndarray          # (n,) corner rows
    edges: np.ndarray       # (n, window, window), nonzero = edge pixel
    directions: np.ndarray  # (n, window, window) direction bins
    counts: np.ndarray      # (n,) edge pixels per window

    @property
    def positions(self) -> np.ndarray:
        """(n, 2) float64 corner positions, as `positions_of`."""
        return np.column_stack((self.xs, self.ys)).astype(np.float64)


def build_descriptors(corners, edge_map: EdgeMap,
                      window: int = DEFAULT_WINDOW) -> list[EdgeDescriptor]:
    """Descriptors for every corner far enough from the border."""
    xs = np.array([c.x for c in corners], dtype=np.intp)
    ys = np.array([c.y for c in corners], dtype=np.intp)
    w = _cut_windows(xs, ys, edge_map, window)
    return [EdgeDescriptor(x=x, y=y, edges=e, directions=g, edge_count=n)
            for x, y, e, g, n in zip(w.xs.tolist(), w.ys.tolist(), w.edges,
                                     w.directions, w.counts.tolist())]


def _cut_windows(xs: np.ndarray, ys: np.ndarray, edge_map: EdgeMap,
                 window: int) -> _Windows:
    """The windows of the corners (xs, ys) that lie at least window // 2
    from every border, in corner order, each raster cut in one gather."""
    _check_window(window)
    r = window // 2
    h, w = edge_map.edges.shape
    fits = (xs >= r) & (ys >= r) & (xs < w - r) & (ys < h - r)
    xs, ys = xs[fits], ys[fits]
    rasters = (edge_map.edges, edge_map.directions)
    if len(xs):  # so the map is at least window wide and high
        edges, directions = (
            sliding_window_view(a, (window, window))[ys - r, xs - r]
            for a in rasters)
    else:
        edges, directions = (np.zeros((0, window, window), a.dtype)
                             for a in rasters)
    return _Windows(xs, ys, edges, directions,
                    np.count_nonzero(edges, axis=(1, 2)))


def similarity(dp: EdgeDescriptor, dq: EdgeDescriptor) -> float:
    """The direct score of dp against dq: score_matrix([dp], [dq])[0, 0]."""
    return float(score_matrix([dp], [dq], "direct")[0, 0])


def score_matrix(src: list[EdgeDescriptor], dst: list[EdgeDescriptor],
                 polarity: str = "direct") -> np.ndarray:
    """Direction-gated edge correlation of every pair, as an (n_src, n_dst)
    array.

    Entry (i, j) counts the pixels that are edges in both src[i] and dst[j]
    and whose direction bins differ by at most one bin, circularly (the
    first and last bins are adjacent). The count is normalized by the square
    root of dst[j]'s edge count, as sqrt(num^2 / count), so that a
    descriptor scored against itself lands exactly on sqrt(edge_count). It
    is 0 when dst[j] carries no edge pixels.

    polarity "flipped" scores src[i] with its directions shifted by
    -(DIRECTION_BINS // 2) bins, half a circle; "both" keeps the larger of
    the direct and flipped scores. Direction bins outside
    [0, DIRECTION_BINS) raise ValueError.
    """
    if not src or not dst:
        raise ValueError("descriptor lists must be nonempty")
    windows = sorted({d.window for d in (*src, *dst)})
    if len(windows) > 1:
        raise ValueError(f"descriptor windows differ: {windows}")
    return _scores(_stack(src), _stack(dst), polarity)


def _stack(descriptors: list[EdgeDescriptor]) -> _Windows:
    """A descriptor list as _Windows, edge counts as the descriptors give them."""
    return _Windows(
        np.array([d.x for d in descriptors], dtype=np.intp),
        np.array([d.y for d in descriptors], dtype=np.intp),
        np.stack([d.edges for d in descriptors]),
        np.stack([d.directions for d in descriptors]),
        np.array([d.edge_count for d in descriptors]))


def _scores(src: _Windows, dst: _Windows, polarity: str) -> np.ndarray:
    """score_matrix of two nonempty stacks of one window size.

    The numerators are one sparse @ dense product per block of candidates:
    with n = DIRECTION_BINS, a source row holds a 1 per edge pixel, at column
    pixel * n + (bin - shift) mod n, and a candidate column a 1 at each bin
    within one bin of its edge pixels' bins. Blocks of about _BLOCK_BYTES of
    candidates, and of at most _SOURCE_EDGES edge pixels of sources, keep
    memory flat in n_dst and in the sources' edge count. Each entry is an
    integer no larger than window**2, below 2**24 for the windows
    _check_window allows, so the float32 sums are exact in any order.
    """
    if polarity not in POLARITIES:
        raise ValueError(f"unknown polarity mode {polarity!r}")
    half = DIRECTION_BINS // 2
    shifts = {"direct": (0,), "flipped": (half,), "both": (0, half)}[polarity]
    n_src, n_dst = len(src.counts), len(dst.counts)
    num = np.empty((len(shifts), n_src, n_dst), np.float32)
    column_bytes = src.edges[0].size * DIRECTION_BINS * num.itemsize
    step = max(1, _BLOCK_BYTES // column_bytes)
    for i0, i1 in _source_blocks(src.counts):
        sources = _source_rows(src.edges[i0:i1], src.directions[i0:i1], shifts)
        for j in range(0, n_dst, step):
            block = sources @ _candidate_columns(dst.edges[j:j + step],
                                                 dst.directions[j:j + step])
            num[:, i0:i1, j:j + step] = block.reshape(len(shifts), i1 - i0, -1)
    num = num.max(axis=0).astype(np.float64)
    counts = dst.counts.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.sqrt(num * num / counts)
    return np.where(counts > 0, scores, 0.0)


def _source_blocks(counts: np.ndarray):
    """(start, stop) runs of sources, by their edge counts, holding at most
    _SOURCE_EDGES edge pixels each, or a single source."""
    start = edges = 0
    for i, n in enumerate(counts.tolist()):
        if i > start and edges + n > _SOURCE_EDGES:
            yield start, i
            start, edges = i, 0
        edges += n
    yield start, len(counts)


def _source_rows(edges: np.ndarray, directions: np.ndarray,
                 shifts) -> sparse.csr_array:
    """Sparse 0/1 matrix whose row k * n + i is window i of the n stacked
    windows under shifts[k]."""
    rows, px, bins = _edge_pixels(edges, directions)
    per_row = np.tile(np.bincount(rows, minlength=len(edges)), len(shifts))
    return sparse.csr_array(
        (np.ones(len(shifts) * len(px), np.float32),
         np.concatenate([px * DIRECTION_BINS + (bins - s) % DIRECTION_BINS
                         for s in shifts]),
         np.concatenate(([0], np.cumsum(per_row)))),
        shape=(len(per_row), edges[0].size * DIRECTION_BINS))


def _edge_pixels(edges: np.ndarray, directions: np.ndarray):
    """Window index, pixel index and direction bin of every edge pixel of
    the stacked windows, in window then pixel order. Bins outside
    [0, DIRECTION_BINS) raise ValueError."""
    flat = np.flatnonzero(edges)
    index, px = np.divmod(flat, edges[0].size)
    bins = directions.take(flat).astype(np.intp)
    bad = bins[(bins < 0) | (bins >= DIRECTION_BINS)]
    if bad.size:
        raise ValueError(
            f"direction bin {bad[0]} is outside [0, {DIRECTION_BINS})")
    return index, px, bins


def _candidate_columns(edges: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """(window**2 * DIRECTION_BINS, n) 0/1 matrix of the n stacked windows'
    edge pixels dilated by one bin, filled (pixel, bin, window) in C order."""
    cand, px, bins = _edge_pixels(edges, directions)
    near = np.zeros((edges[0].size, DIRECTION_BINS, len(edges)), np.float32)
    for off in (-1, 0, 1):
        near[px, (bins + off) % DIRECTION_BINS, cand] = 1
    return near.reshape(-1, len(edges))

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

import numpy as np
from scipy import sparse

from .edges import DIRECTION_BINS, EdgeMap
from .features import Corner

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

    @property
    def position(self) -> tuple[int, int]:
        return (self.x, self.y)


def build_descriptor(corner: Corner, edge_map: EdgeMap,
                     window: int = DEFAULT_WINDOW) -> EdgeDescriptor | None:
    """Window the precomputed edge map around a corner.

    Returns None when the corner sits closer than window // 2 to the image
    border (the window would not fit).
    """
    _check_window(window)
    r = window // 2
    h, w = edge_map.edges.shape
    x, y = corner.x, corner.y
    if x < r or y < r or x >= w - r or y >= h - r:
        return None
    e = edge_map.edges[y - r:y + r + 1, x - r:x + r + 1]
    g = edge_map.directions[y - r:y + r + 1, x - r:x + r + 1]
    return EdgeDescriptor(x=x, y=y, edges=e, directions=g,
                          edge_count=int(np.count_nonzero(e)))


def build_descriptors(corners, edge_map: EdgeMap,
                      window: int = DEFAULT_WINDOW) -> list[EdgeDescriptor]:
    """Descriptors for every corner far enough from the border."""
    out = []
    for c in corners:
        d = build_descriptor(c, edge_map, window)
        if d is not None:
            out.append(d)
    return out


def _check_compatible(dp: EdgeDescriptor, dq: EdgeDescriptor) -> None:
    if dp.window != dq.window:
        raise ValueError(
            f"descriptor windows differ: {dp.window} vs {dq.window}")


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

    The numerators are one sparse @ dense product per block of candidates:
    with n = DIRECTION_BINS, a source row holds a 1 per edge pixel, at column
    pixel * n + (bin - shift) mod n, and a candidate column a 1 at each bin
    within one bin of its edge pixels' bins. Blocks of about _BLOCK_BYTES of
    candidates, and of at most _SOURCE_EDGES edge pixels of sources, keep
    memory flat in n_dst and in the sources' edge count. Each entry is an
    integer no larger than window**2, below 2**24 for the windows
    build_descriptor allows, so the float32 sums are exact in any order.
    """
    if polarity not in POLARITIES:
        raise ValueError(f"unknown polarity mode {polarity!r}")
    if not src or not dst:
        raise ValueError("descriptor lists must be nonempty")
    for d in (*src, *dst):
        _check_compatible(src[0], d)
    half = DIRECTION_BINS // 2
    shifts = {"direct": (0,), "flipped": (half,), "both": (0, half)}[polarity]
    num = np.empty((len(shifts), len(src), len(dst)), np.float32)
    column_bytes = src[0].window ** 2 * DIRECTION_BINS * num.itemsize
    step = max(1, _BLOCK_BYTES // column_bytes)
    for i0, i1 in _source_blocks(src):
        sources = _source_rows(src[i0:i1], shifts)
        for j in range(0, len(dst), step):
            block = sources @ _candidate_columns(dst[j:j + step])
            num[:, i0:i1, j:j + step] = block.reshape(len(shifts), i1 - i0, -1)
    num = num.max(axis=0).astype(np.float64)
    counts = np.array([d.edge_count for d in dst], dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.sqrt(num * num / counts)
    return np.where(counts > 0, scores, 0.0)


def _source_blocks(src: list[EdgeDescriptor]):
    """(start, stop) runs of sources holding at most _SOURCE_EDGES edge
    pixels each, or a single source."""
    start = edges = 0
    for i, d in enumerate(src):
        if i > start and edges + d.edge_count > _SOURCE_EDGES:
            yield start, i
            start, edges = i, 0
        edges += d.edge_count
    yield start, len(src)


def _source_rows(src: list[EdgeDescriptor], shifts) -> sparse.csr_array:
    """Sparse 0/1 matrix whose row k * n_src + i is src[i] under shifts[k]."""
    rows, px, bins = _edge_pixels(src)
    per_row = np.tile(np.bincount(rows, minlength=len(src)), len(shifts))
    return sparse.csr_array(
        (np.ones(len(shifts) * len(px), np.float32),
         np.concatenate([px * DIRECTION_BINS + (bins - s) % DIRECTION_BINS
                         for s in shifts]),
         np.concatenate(([0], np.cumsum(per_row)))),
        shape=(len(per_row), src[0].window ** 2 * DIRECTION_BINS))


def _edge_pixels(descriptors: list[EdgeDescriptor]):
    """Descriptor index, pixel index and direction bin of every edge pixel,
    in descriptor then pixel order. Bins outside [0, DIRECTION_BINS) raise
    ValueError."""
    edges = np.stack([d.edges for d in descriptors])
    flat = np.flatnonzero(edges)
    index, px = np.divmod(flat, edges[0].size)
    bins = np.stack([d.directions for d in descriptors]).take(flat).astype(np.intp)
    bad = bins[(bins < 0) | (bins >= DIRECTION_BINS)]
    if bad.size:
        raise ValueError(
            f"direction bin {bad[0]} is outside [0, {DIRECTION_BINS})")
    return index, px, bins


def _candidate_columns(dst: list[EdgeDescriptor]) -> np.ndarray:
    """(window**2 * DIRECTION_BINS, n_dst) 0/1 matrix of each candidate's edge
    pixels dilated by one bin, filled (pixel, bin, candidate) in C order."""
    cand, px, bins = _edge_pixels(dst)
    near = np.zeros((dst[0].window ** 2, DIRECTION_BINS, len(dst)), np.float32)
    for off in (-1, 0, 1):
        near[px, (bins + off) % DIRECTION_BINS, cand] = 1
    return near.reshape(-1, len(dst))

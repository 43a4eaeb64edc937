"""Ground-condition map: grid recording and banded-distance interpolation.

A GroundMap is a w x l grid of cells over planar world coordinates; each
non-empty cell carries the running mean of every inserted parameter layer
(a, p, alpha1, alpha2, rho_s) plus a hit count.  Interpolation fills and
smooths the map with a three-band Manhattan-distance rule: for each target
cell, the mean of the non-empty source cells in each distance band is
weighted by the band weight and the weighted means are averaged over the
bands that contributed.  All reads come from the pre-interpolation
snapshot, so the sweep order is irrelevant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

LAYER_NAMES = ("a", "p", "alpha1", "alpha2", "rho_s")
NUM_LAYERS = len(LAYER_NAMES)


def check_resolution(resolution: float) -> None:
    """Raise ValueError unless 0 < resolution < inf (meters per cell)."""
    if not 0.0 < resolution < math.inf:
        raise ValueError("resolution must be positive and finite")


@dataclass(frozen=True)
class InterpolationConfig:
    """Three search thresholds (meters) with their band weights.

    Bands, in cells after dividing by the map resolution:
      high:  d <= eps_high
      mid:   eps_high < d <= eps_mid
      low:   eps_mid  < d <= eps_low
    """

    eps_low: float = 10.0
    eps_mid: float = 5.0
    eps_high: float = 1.5
    w_low: float = 0.1
    w_mid: float = 0.5
    w_high: float = 4.0

    def __post_init__(self) -> None:
        if not self.eps_low > self.eps_mid > self.eps_high > 0.0:
            raise ValueError("thresholds must satisfy eps_low > eps_mid > eps_high > 0")
        if not 0.0 < self.w_low < self.w_mid < self.w_high:
            raise ValueError("weights must satisfy 0 < w_low < w_mid < w_high")


@dataclass
class GroundMap:
    """Grid of soil-parameter cells anchored at a world origin.

    ``values`` has shape (w, l, NUM_LAYERS); ``counts`` has shape (w, l)
    and a cell is empty iff its count is 0.
    """

    origin: tuple[float, float]
    resolution: float = 1.0
    values: np.ndarray = field(default=None)  # type: ignore[assignment]
    counts: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        check_resolution(self.resolution)
        if self.values is None:
            self.values = np.zeros((1, 1, NUM_LAYERS))
        if self.counts is None:
            self.counts = np.zeros(self.values.shape[:2], dtype=int)
        if self.values.shape[:2] != self.counts.shape:
            raise ValueError("values/counts shape mismatch")

    @classmethod
    def empty(cls, origin: tuple[float, float], resolution: float = 1.0,
              width: int = 1, length: int = 1) -> "GroundMap":
        return cls(origin=origin, resolution=resolution,
                   values=np.zeros((width, length, NUM_LAYERS)),
                   counts=np.zeros((width, length), dtype=int))

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape

    def coverage(self) -> float:
        return float(np.count_nonzero(self.counts)) / self.counts.size

    def copy(self) -> "GroundMap":
        return GroundMap(origin=self.origin, resolution=self.resolution,
                         values=self.values.copy(), counts=self.counts.copy())


def grow_to_include(gmap: GroundMap, pos: tuple[float, float]) -> GroundMap:
    """Reallocate (doubling per axis as needed) so ``pos`` falls inside.

    Growth keeps every recorded cell at its world position.  Positive
    growth preserves the origin; indices below zero shift the origin down
    by whole cells instead.
    """
    i = int(np.floor((pos[0] - gmap.origin[0]) / gmap.resolution))
    j = int(np.floor((pos[1] - gmap.origin[1]) / gmap.resolution))
    w, l = gmap.shape

    lo_i, hi_i, lo_j, hi_j = 0, w, 0, l
    while i < lo_i:
        lo_i -= max(w, 1)
    while i >= hi_i:
        hi_i += max(hi_i - lo_i, 1)
    while j < lo_j:
        lo_j -= max(l, 1)
    while j >= hi_j:
        hi_j += max(hi_j - lo_j, 1)

    new = GroundMap.empty(
        origin=(gmap.origin[0] + lo_i * gmap.resolution,
                gmap.origin[1] + lo_j * gmap.resolution),
        resolution=gmap.resolution,
        width=hi_i - lo_i, length=hi_j - lo_j)
    new.values[-lo_i:-lo_i + w, -lo_j:-lo_j + l] = gmap.values
    new.counts[-lo_i:-lo_i + w, -lo_j:-lo_j + l] = gmap.counts
    return new


def insert_auto(gmap: GroundMap, positions, values) -> GroundMap:
    """Running-mean insert of parameter rows at world positions, in order.

    ``positions`` is (n, 2) and ``values`` (n, NUM_LAYERS).  A row lands
    in cell ``floor((pos - origin) / resolution)``.  At the first row that
    falls outside, the map grows through one ``grow_to_include`` call and
    the rows from there on are placed against the grown map's origin; a
    row that rounding at the shifted origin still leaves outside grows it
    again.  Returns the map holding every row (a new one if it grew).

    Each cell takes its rows in stream order: rows are applied in rounds
    by their rank within the cell, each round updating distinct cells
    with ``(v * count + x) / (count + 1)``, so every cell sees the same
    float64 operations on the same operands as one insert per row.
    """
    positions = np.asarray(positions, dtype=float)
    values = np.asarray(values, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError("positions must be an (n, 2) array")
    if values.shape != (len(positions), NUM_LAYERS):
        raise ValueError(f"expected {NUM_LAYERS} layer values per position")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    start = 0
    while start < len(positions):
        cell = np.floor((positions[start:] - gmap.origin) / gmap.resolution)
        # NaN compares false, so a NaN position counts as outside and
        # grow_to_include raises on it
        inside = ((cell >= 0) & (cell < gmap.shape)).all(axis=1)
        stop = len(cell) if inside.all() else int(np.argmin(inside))
        if stop:
            _insert_rows(gmap, cell[:stop].astype(np.int64),
                         values[start:start + stop])
        start += stop
        if start < len(positions):
            gmap = grow_to_include(gmap, tuple(positions[start].tolist()))
    return gmap


def _insert_rows(gmap: GroundMap, cell: np.ndarray, values: np.ndarray) -> None:
    """Running-mean insert of rows at in-bounds cell indices, in order."""
    flat = cell[:, 0] * gmap.shape[1] + cell[:, 1]
    order = np.argsort(flat, kind="stable")
    flat = flat[order]
    first = np.flatnonzero(np.r_[True, flat[1:] != flat[:-1]])
    rank = np.arange(len(flat)) - np.repeat(first, np.diff(np.r_[first, len(flat)]))
    # rows grouped by rank, stream order kept within each cell
    by_rank = order[np.argsort(rank, kind="stable")]
    lo = 0
    for hi in np.cumsum(np.bincount(rank)).tolist():
        rows = by_rank[lo:hi]
        lo = hi
        i, j = cell[rows, 0], cell[rows, 1]
        count = gmap.counts[i, j][:, None]
        gmap.values[i, j] = (gmap.values[i, j] * count + values[rows]) / (count + 1)
        gmap.counts[i, j] = count[:, 0] + 1


def _band_offsets(d_min_excl: float, d_max_incl: float) -> list[tuple[int, int]]:
    """Integer offsets with d_min_excl < Manhattan distance <= d_max_incl."""
    reach = int(np.floor(d_max_incl))
    offsets = []
    for di in range(-reach, reach + 1):
        for dj in range(-reach, reach + 1):
            d = abs(di) + abs(dj)
            if d_min_excl < d <= d_max_incl:
                offsets.append((di, dj))
    return offsets


# Cells per row tile of the interpolation sweep: a band's (6, rows, l)
# accumulator of about this many cells stays in cache across its offsets.
TILE_CELLS = 8192


def interpolate(gmap: GroundMap,
                cfg: InterpolationConfig = InterpolationConfig()) -> GroundMap:
    """Banded-distance interpolation/extrapolation over the whole grid.

    Returns a new map; the input is read only.  For each cell, each band's
    mean of non-empty source cells is weighted and the result normalized
    by the total weight of contributing bands (a weighted average, so a
    constant field is reproduced exactly and outputs stay within the
    per-layer source range).  Cells with no source within eps_low stay
    empty.  The high band includes d = 0, so a filled cell contributes to
    itself.

    Only the bounding box of the filled cells, widened by the low band's
    reach and clipped to the grid, can be reached; the sweep covers that
    box alone, in row tiles of about ``TILE_CELLS`` cells.  The layers
    and the fill mask are stacked as six planes, so each offset is one
    add.  Every cell sums its band's offsets in the same order as a
    full-grid sweep would, and the empty cells it reads add an exact
    +0.0, so the result does not depend on the box or the tiling.
    """
    filled = gmap.counts > 0
    if not np.any(filled):
        raise ValueError("map has no recorded cells")
    res = gmap.resolution
    bands = [
        (_band_offsets(-1.0, cfg.eps_high / res), cfg.w_high),
        (_band_offsets(cfg.eps_high / res, cfg.eps_mid / res), cfg.w_mid),
        (_band_offsets(cfg.eps_mid / res, cfg.eps_low / res), cfg.w_low),
    ]

    w, l = gmap.shape
    reach = int(np.floor(cfg.eps_low / res))
    rows = np.flatnonzero(filled.any(axis=1))
    cols = np.flatnonzero(filled.any(axis=0))
    i0, i1 = max(rows[0] - reach, 0), min(rows[-1] + 1 + reach, w)
    j0, j1 = max(cols[0] - reach, 0), min(cols[-1] + 1 + reach, l)
    bw, bl = i1 - i0, j1 - j0

    # Planes 0-4 hold the layers of the filled cells, plane 5 the fill
    # mask; the zero margin stands for the empty or off-grid cells beyond
    # the box.
    box_filled = filled[i0:i1, j0:j1]
    src = np.zeros((NUM_LAYERS + 1, bw + 2 * reach, bl + 2 * reach))
    np.copyto(src[:NUM_LAYERS, reach:reach + bw, reach:reach + bl],
              np.moveaxis(gmap.values[i0:i1, j0:j1], -1, 0), where=box_filled)
    src[NUM_LAYERS, reach:reach + bw, reach:reach + bl] = box_filled

    out = GroundMap.empty(gmap.origin, res, w, l)
    tile_rows = max(1, TILE_CELLS // bl)
    for r0 in range(0, bw, tile_rows):
        r1 = min(r0 + tile_rows, bw)
        weighted = np.zeros((NUM_LAYERS, r1 - r0, bl))
        weight_total = np.zeros((r1 - r0, bl))
        for offsets, band_weight in bands:
            if not offsets:
                continue
            acc = np.zeros((NUM_LAYERS + 1, r1 - r0, bl))
            for di, dj in offsets:
                acc += src[:, reach + r0 + di:reach + r1 + di,
                           reach + dj:reach + dj + bl]
            # A cell with no source in the band has summed only +0.0, so
            # its mean stays 0.0 and adds an exact +0.0 to ``weighted``.
            has = acc[NUM_LAYERS] > 0
            mean = np.divide(acc[:NUM_LAYERS], acc[NUM_LAYERS], where=has,
                             out=acc[:NUM_LAYERS])
            weighted += band_weight * mean
            weight_total += np.where(has, band_weight, 0.0)
        reached = weight_total > 0
        np.divide(weighted, weight_total, where=reached, out=weighted)
        out.values[i0 + r0:i0 + r1, j0:j1] = np.moveaxis(weighted, 0, -1)
        out.counts[i0 + r0:i0 + r1, j0:j1] = reached
    return out


def export_layer_csv(gmap: GroundMap, layer: str, path) -> None:
    """Write one layer as ``i,j,<layer>`` rows, empty cells omitted.

    Rows run in row-major cell order with ``repr`` floats and ``\\r\\n``
    line ends, the format of the standard ``csv`` writer.
    """
    if layer not in LAYER_NAMES:
        raise ValueError(f"unknown layer {layer!r}; expected one of {LAYER_NAMES}")
    k = LAYER_NAMES.index(layer)
    i, j = np.nonzero(gmap.counts > 0)
    rows = [f"i,j,{layer}\r\n"]
    rows.extend(f"{a},{b},{v!r}\r\n" for a, b, v in
                zip(i.tolist(), j.tolist(), gmap.values[i, j, k].tolist()))
    with open(path, "w", newline="") as fh:
        fh.write("".join(rows))

"""Ground-condition map: grid recording and banded-distance interpolation.

A GroundMap is a w x l grid of cells over planar world coordinates; each
non-empty cell carries the running mean of every inserted parameter layer
(the curve scale a and rho_s) plus a hit count.  An insert reallocates
the grid at most once, to the box of the grid and the cells its rows fall
in.  Interpolation fills and smooths the map with a three-band
Manhattan-distance rule: for each target cell, the mean of the non-empty
source cells in each distance band is weighted by the band weight and the
weighted means are averaged over the bands that contributed.  All reads
come from the pre-interpolation snapshot, so the sweep order is
irrelevant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LAYER_NAMES = ("a", "rho_s")
NUM_LAYERS = len(LAYER_NAMES)


def check_resolution(resolution: float) -> None:
    """Raise ValueError unless 0 < resolution < inf (meters per cell)."""
    if not 0.0 < resolution < math.inf:
        raise ValueError("resolution must be positive and finite")


# Interpolation search thresholds (meters) and their band weights.  In
# cells, after dividing by the map resolution, the bands are
#   high:  d <= EPS_HIGH
#   mid:   EPS_HIGH < d <= EPS_MID
#   low:   EPS_MID  < d <= EPS_LOW
EPS_LOW, EPS_MID, EPS_HIGH = 10.0, 5.0, 1.5
W_LOW, W_MID, W_HIGH = 0.1, 0.5, 4.0


@dataclass
class GroundMap:
    """Grid of soil-parameter cells anchored at a world origin.

    ``values`` has shape (w, l, NUM_LAYERS); ``counts`` has shape (w, l)
    and a cell is empty iff its count is 0.
    """

    origin: tuple[float, float]
    resolution: float
    values: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        check_resolution(self.resolution)
        if self.values.shape[:2] != self.counts.shape:
            raise ValueError("values/counts shape mismatch")

    @classmethod
    def empty(cls, origin: tuple[float, float], resolution: float,
              width: int = 1, length: int = 1) -> "GroundMap":
        """An all-empty map; raises ValueError when numpy cannot allocate
        the grid."""
        try:
            values = np.zeros((width, length, NUM_LAYERS))
            counts = np.zeros((width, length), dtype=int)
        except (MemoryError, ValueError) as exc:
            raise ValueError(f"map grid of {width} x {length} cells at "
                             f"resolution {resolution} m cannot be "
                             f"allocated: {exc}") from exc
        return cls(origin=origin, resolution=resolution, values=values,
                   counts=counts)

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape

    def coverage(self) -> float:
        return float(np.count_nonzero(self.counts)) / self.counts.size


def _cells(gmap: GroundMap, positions: np.ndarray) -> np.ndarray:
    """``floor((positions - origin) / resolution)`` of (n, 2) positions;
    raises ValueError, before numpy warns of an overflow, when a cell index
    is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        cell = np.floor((positions - gmap.origin) / gmap.resolution)
    if not np.isfinite(cell).all():
        row = np.argmin(np.isfinite(cell).all(axis=1))
        pos = tuple(positions[row].tolist())
        raise ValueError(f"map cell index of position {pos} at resolution "
                         f"{gmap.resolution} m is not finite")
    return cell


def grow_to_include(gmap: GroundMap, lo, hi) -> GroundMap:
    """Reallocate to the cells ``[lo, hi)`` per axis of ``gmap``'s index
    space, where ``lo <= 0`` and ``hi >= gmap.shape``.

    Every recorded cell keeps its world position: the origin moves down by
    ``-lo`` whole cells (an axis with ``lo == 0`` keeps it exactly) and the
    old grid is copied in at ``-lo``.
    """
    # whole cells the origin moves down, and the old grid's offset in the new
    di, dj = -lo[0], -lo[1]
    w, l = gmap.shape
    new = GroundMap.empty(
        origin=(gmap.origin[0] - di * gmap.resolution,
                gmap.origin[1] - dj * gmap.resolution),
        resolution=gmap.resolution,
        width=hi[0] + di, length=hi[1] + dj)
    new.values[di:di + w, dj:dj + l] = gmap.values
    new.counts[di:di + w, dj:dj + l] = gmap.counts
    return new


def insert_auto(gmap: GroundMap, positions, values) -> GroundMap:
    """Running-mean insert of parameter rows at world positions, in order.

    ``positions`` is (n, 2) and ``values`` (n, NUM_LAYERS).  Every row's
    cell ``floor((pos - origin) / resolution)`` is computed once, against
    the origin of ``gmap``.  When a cell falls outside, the map is
    reallocated once, through ``grow_to_include``, to the box of the grid
    and every row's cell; each row then lands at its cell less the box's
    lower corner.  Returns the map holding every row (a new one if it
    grew).  Raises ValueError when a row's cell index is not finite (a
    NaN position, or one that overflows at a subnormal resolution) and
    when the box cannot be allocated.

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
    cell = _cells(gmap, positions)
    # Python ints, so a box too large to allocate is named, not cast
    lo = [int(c) for c in cell.min(axis=0, initial=0.0)]
    hi = [max(int(c) + 1, n)
          for c, n in zip(cell.max(axis=0, initial=0.0), gmap.shape)]
    if lo != [0, 0] or hi != list(gmap.shape):
        gmap = grow_to_include(gmap, lo, hi)
    _insert_rows(gmap, (cell - lo).astype(np.int64), values)
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


# Cells per row tile of the interpolation sweep: a band's (3, rows, l)
# accumulator of about this many cells stays in cache across its offsets.
TILE_CELLS = 8192


def interpolate(gmap: GroundMap) -> GroundMap:
    """Banded-distance interpolation/extrapolation over the whole grid.

    Returns a new map; the input is read only.  For each cell, each band's
    mean of non-empty source cells is weighted and the result normalized
    by the total weight of contributing bands (a weighted average, so a
    constant field is reproduced exactly and outputs stay within the
    per-layer source range).  Cells with no source within EPS_LOW stay
    empty.  The high band includes d = 0, so a filled cell contributes to
    itself.

    The sweep covers the whole grid, in row tiles of about ``TILE_CELLS``
    cells: a grid from ``cli.build_map`` is the box of its records' cells,
    so every edge row and column holds a record and no smaller box holds
    every reachable cell.  The layers and the fill mask are stacked as
    three planes, so each offset is one add.  Every cell sums its band's
    offsets in the same order whatever the tiling, and the empty cells it
    reads add an exact +0.0.
    """
    filled = gmap.counts > 0
    if not np.any(filled):
        raise ValueError("map has no recorded cells")
    res = gmap.resolution
    bands = [
        (_band_offsets(-1.0, EPS_HIGH / res), W_HIGH),
        (_band_offsets(EPS_HIGH / res, EPS_MID / res), W_MID),
        (_band_offsets(EPS_MID / res, EPS_LOW / res), W_LOW),
    ]

    w, l = gmap.shape
    reach = int(np.floor(EPS_LOW / res))
    # Planes 0-1 hold the layers of the filled cells, plane 2 the fill
    # mask; the zero margin stands for the off-grid cells.
    src = np.zeros((NUM_LAYERS + 1, w + 2 * reach, l + 2 * reach))
    np.copyto(src[:NUM_LAYERS, reach:reach + w, reach:reach + l],
              np.moveaxis(gmap.values, -1, 0), where=filled)
    src[NUM_LAYERS, reach:reach + w, reach:reach + l] = filled

    out = GroundMap.empty(gmap.origin, res, w, l)
    tile_rows = max(1, TILE_CELLS // l)
    for r0 in range(0, w, tile_rows):
        r1 = min(r0 + tile_rows, w)
        weighted = np.zeros((NUM_LAYERS, r1 - r0, l))
        weight_total = np.zeros((r1 - r0, l))
        for offsets, band_weight in bands:
            if not offsets:
                continue
            acc = np.zeros((NUM_LAYERS + 1, r1 - r0, l))
            for di, dj in offsets:
                acc += src[:, reach + r0 + di:reach + r1 + di,
                           reach + dj:reach + dj + l]
            # A cell with no source in the band has summed only +0.0, so
            # its mean stays 0.0 and adds an exact +0.0 to ``weighted``.
            has = acc[NUM_LAYERS] > 0
            mean = np.divide(acc[:NUM_LAYERS], acc[NUM_LAYERS], where=has,
                             out=acc[:NUM_LAYERS])
            weighted += band_weight * mean
            weight_total += np.where(has, band_weight, 0.0)
        reached = weight_total > 0
        np.divide(weighted, weight_total, where=reached, out=weighted)
        out.values[r0:r1] = np.moveaxis(weighted, 0, -1)
        out.counts[r0:r1] = reached
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
    # "i," and "j," formatted once per grid row and column, not per cell
    i_field = [f"{a}," for a in range(gmap.shape[0])]
    j_field = [f"{b}," for b in range(gmap.shape[1])]
    rows = [f"i,j,{layer}\r\n"]
    rows.extend(f"{i_field[a]}{j_field[b]}{v!r}\r\n" for a, b, v in
                zip(i.tolist(), j.tolist(), gmap.values[i, j, k].tolist()))
    with open(path, "w", newline="") as fh:
        fh.write("".join(rows))

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    OutOfBounds,
    brute_force_interpolate,
    import_layer_csv,
    reference_build_map,
    reference_export_layer_csv,
    reference_interpolate,
    reference_load_map_state,
    reference_save_map_state,
    world_to_grid,
)
from tractionmap import cli, mapping
from tractionmap.estimator import EstimateRecord
from tractionmap.mapping import (
    LAYER_NAMES,
    GroundMap,
    InterpolationConfig,
    grow_to_include,
    insert_auto,
    interpolate,
)

VALS = np.array([0.7, 0.6, -20.0, -3.0, 0.06])


def make_map(width=12, length=12, origin=(0.0, 0.0), resolution=1.0):
    return GroundMap.empty(origin=origin, resolution=resolution,
                           width=width, length=length)


# --- world/grid transform of the scalar reference ----------------------------

def test_world_to_grid_origin_is_zero_cell():
    gmap = make_map(origin=(5.0, -3.0))
    assert world_to_grid((5.0, -3.0), gmap) == (0, 0)


def test_world_to_grid_floors():
    gmap = make_map(origin=(0.0, 0.0))
    assert world_to_grid((2.4, 7.9), gmap) == (2, 7)


def test_world_to_grid_out_of_bounds():
    gmap = make_map(origin=(0.0, 0.0))
    with pytest.raises(OutOfBounds) as exc:
        world_to_grid((-0.1, 0.0), gmap)
    assert exc.value.index == (-1, 0)


def test_world_to_grid_respects_resolution():
    gmap = make_map(resolution=0.5)
    assert world_to_grid((2.4, 1.0), gmap) == (4, 2)


# --- insert -------------------------------------------------------------------

def test_insert_into_empty_cell():
    gmap = make_map()
    insert_auto(gmap, [(3.5, 3.5)], [VALS])
    assert gmap.counts[3, 3] == 1
    assert np.allclose(gmap.values[3, 3], VALS)


def test_insert_running_mean():
    gmap = make_map()
    insert_auto(gmap, [(1.0, 1.0), (1.2, 1.8)], [np.full(5, 0.2), np.full(5, 0.4)])
    assert gmap.counts[1, 1] == 2
    assert np.allclose(gmap.values[1, 1], 0.3)


def test_insert_validates_values():
    gmap = make_map()
    with pytest.raises(ValueError):
        insert_auto(gmap, [(1.0, 1.0)], [[1.0, 2.0]])
    with pytest.raises(ValueError):
        insert_auto(gmap, [(1.0, 1.0)], [[np.nan] * 5])
    with pytest.raises(ValueError):
        insert_auto(gmap, [(1.0, 1.0)], [VALS, VALS])
    with pytest.raises(ValueError):
        insert_auto(gmap, [1.0, 1.0], [VALS])
    assert not gmap.counts.any()


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=8),
       seed=st.integers(0, 1000))
def test_insert_order_invariance(values, seed):
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(values))
    a, b = make_map(), make_map()
    insert_auto(a, [(2.0, 2.0)] * len(values), np.repeat(np.c_[values], 5, axis=1))
    insert_auto(b, [(2.0, 2.0)] * len(values),
                np.repeat(np.c_[values][order], 5, axis=1))
    assert a.counts[2, 2] == b.counts[2, 2] == len(values)
    assert np.abs(a.values[2, 2] - b.values[2, 2]).max() < 1e-12
    # running mean equals the arithmetic mean of everything inserted
    assert np.abs(a.values[2, 2] - np.mean(values)).max() < 1e-12


# --- growth -------------------------------------------------------------------

def test_grow_preserves_world_anchoring():
    gmap = make_map(width=2, length=2, origin=(10.0, 20.0))
    insert_auto(gmap, [(10.5, 20.5)], [VALS])
    grown = grow_to_include(gmap, (25.0, 20.0))
    assert world_to_grid((25.0, 20.0), grown)
    i, j = world_to_grid((10.5, 20.5), grown)
    assert grown.counts[i, j] == 1
    assert np.allclose(grown.values[i, j], VALS)


def test_grow_handles_negative_indices():
    gmap = make_map(width=2, length=2, origin=(0.0, 0.0))
    insert_auto(gmap, [(0.5, 0.5)], [VALS])
    grown = grow_to_include(gmap, (-3.0, -1.0))
    i, j = world_to_grid((0.5, 0.5), grown)
    assert np.allclose(grown.values[i, j], VALS)
    assert world_to_grid((-3.0, -1.0), grown)


def test_insert_auto_grows():
    gmap = make_map(width=1, length=1)
    gmap = insert_auto(gmap, [(0.5, 0.5), (7.5, 0.5)], [VALS, VALS * 2])
    assert gmap.shape == (8, 1)
    i, j = world_to_grid((7.5, 0.5), gmap)
    assert np.allclose(gmap.values[i, j], VALS * 2)


# --- interpolation ---------------------------------------------------------------

def test_interpolation_config_validation():
    with pytest.raises(ValueError):
        InterpolationConfig(eps_low=1.0, eps_mid=5.0, eps_high=10.0)
    with pytest.raises(ValueError):
        InterpolationConfig(w_low=4.0, w_mid=0.5, w_high=0.1)


def test_interpolate_requires_data():
    with pytest.raises(ValueError):
        interpolate(make_map())


def test_single_cell_spreads_its_value_within_high_band():
    gmap = make_map()
    insert_auto(gmap, [(5.5, 5.5)], [VALS])
    out = interpolate(gmap)
    # only one source cell: every reached cell averages to exactly its value
    for i in range(12):
        for j in range(12):
            d = abs(i - 5) + abs(j - 5)
            if d <= 10:
                assert np.allclose(out.values[i, j], VALS, atol=1e-12)
                assert out.counts[i, j] == 1
            else:
                assert out.counts[i, j] == 0


def test_uniform_map_unchanged():
    gmap = make_map()
    centres = [(i + 0.5, j + 0.5) for i in range(12) for j in range(12)]
    insert_auto(gmap, centres, [VALS] * len(centres))
    out = interpolate(gmap)
    assert np.allclose(out.values, np.broadcast_to(VALS, out.values.shape),
                       atol=1e-12)


def test_interpolate_idempotent_on_constant_field():
    gmap = make_map()
    insert_auto(gmap, [(2.5, 2.5)], [VALS])
    once = interpolate(gmap)
    twice = interpolate(once)
    reached = once.counts > 0
    assert np.allclose(once.values[reached], twice.values[reached], atol=1e-12)


def test_far_cells_stay_empty():
    gmap = make_map(width=30, length=3)
    insert_auto(gmap, [(0.5, 1.5)], [VALS])
    out = interpolate(gmap)
    assert out.counts[12, 1] == 0  # manhattan 12 > eps_low
    assert out.counts[10, 1] == 1  # manhattan 10 == eps_low band edge


def test_interpolate_matches_brute_force_on_random_maps():
    rng = np.random.default_rng(123)
    for _ in range(4):
        gmap = make_map(width=40, length=40)
        for _ in range(rng.integers(3, 120)):
            i, j = rng.integers(0, 40, 2)
            gmap.counts[i, j] += 1
            gmap.values[i, j] = rng.uniform(0.0, 1.0, 5)
        out = interpolate(gmap)
        ref_vals, ref_counts = brute_force_interpolate(
            gmap.values, gmap.counts, gmap.resolution,
            (10.0, 5.0, 1.5), (0.1, 0.5, 4.0))
        assert np.array_equal(out.counts > 0, ref_counts > 0)
        assert np.abs(out.values - ref_vals).max() < 1e-12


def test_interpolate_output_within_source_range_per_layer():
    rng = np.random.default_rng(7)
    gmap = make_map(width=20, length=20)
    for _ in range(40):
        i, j = rng.integers(0, 20, 2)
        gmap.counts[i, j] = 1
        gmap.values[i, j] = rng.uniform(-1.0, 1.0, 5)
    out = interpolate(gmap)
    filled = gmap.counts > 0
    reached = out.counts > 0
    for k in range(5):
        lo, hi = gmap.values[filled, k].min(), gmap.values[filled, k].max()
        assert out.values[reached, k].min() >= lo - 1e-12
        assert out.values[reached, k].max() <= hi + 1e-12


def test_interpolate_commutes_with_grid_reflection():
    # snapshot semantics make the result independent of sweep order; a
    # reflection of the grid must therefore commute with interpolation
    rng = np.random.default_rng(99)
    gmap = make_map(width=15, length=9)
    for _ in range(25):
        i, j = rng.integers(0, 15), rng.integers(0, 9)
        gmap.counts[i, j] = 1
        gmap.values[i, j] = rng.uniform(0.0, 1.0, 5)
    flipped = gmap.copy()
    flipped.values = flipped.values[::-1].copy()
    flipped.counts = flipped.counts[::-1].copy()
    out = interpolate(gmap)
    out_flipped = interpolate(flipped)
    assert np.allclose(out.values[::-1], out_flipped.values, atol=1e-12)
    assert np.array_equal(out.counts[::-1], out_flipped.counts)


def test_interpolate_input_not_mutated():
    gmap = make_map()
    insert_auto(gmap, [(2.5, 2.5)], [VALS])
    before_vals = gmap.values.copy()
    before_counts = gmap.counts.copy()
    interpolate(gmap)
    assert np.array_equal(gmap.values, before_vals)
    assert np.array_equal(gmap.counts, before_counts)


# --- bit-equality with the reference map layer -----------------------------------

def _survey_track():
    """Serpentine lanes at 0.5 m cells with GPS jitter and dropped records,
    the field-survey workload in miniature."""
    rng = np.random.default_rng(11)
    positions, rows = [], []
    for lane, y in enumerate(np.arange(1.0, 9.0, 2.0)):
        xs = np.arange(1.0, 39.0, 0.2)
        for x in xs if lane % 2 == 0 else xs[::-1]:
            if rng.random() < 0.1:
                continue
            positions.append((float(x + rng.normal(0.0, 0.05)),
                              float(y + rng.normal(0.0, 0.05))))
            rows.append(VALS + rng.normal(0.0, 0.02, 5))
    gmap = GroundMap.empty(origin=positions[0], resolution=0.5)
    return insert_auto(gmap, positions, rows), InterpolationConfig()


def _all_edges():
    rng = np.random.default_rng(5)
    gmap = make_map(width=30, length=20)
    for i, j in [(0, 0), (0, 7), (0, 19), (13, 0), (29, 0), (29, 11),
                 (29, 19), (21, 19), (14, 9)]:
        gmap.counts[i, j] = 1 + rng.integers(0, 3)
        gmap.values[i, j] = rng.uniform(-1.0, 1.0, 5)
    return gmap, InterpolationConfig()


def _grown_negative():
    gmap = insert_auto(GroundMap.empty(origin=(0.0, 0.0)),
                       [(0.5, 0.5), (-7.3, -12.1), (3.2, -1.4), (-20.5, 4.9)],
                       np.outer([1.0, 1.3, 0.8, 1.1], VALS))
    assert gmap.origin[0] < 0.0 and gmap.origin[1] < 0.0
    return gmap, InterpolationConfig()


def _one_cell():
    gmap = make_map(width=1, length=1)
    insert_auto(gmap, [(0.5, 0.5)], [VALS])
    return gmap, InterpolationConfig()


def _high_band_only_self():
    # eps_high below one cell: the high band is d = 0 alone
    gmap, _ = _all_edges()
    return gmap, InterpolationConfig(eps_low=6.0, eps_mid=2.5, eps_high=0.4)


def _empty_mid_band():
    # no integer distance lies in (1.2, 1.5]: the mid band has no offsets
    gmap, _ = _all_edges()
    return gmap, InterpolationConfig(eps_low=5.0, eps_mid=1.5, eps_high=1.2)


MAP_CASES = [_survey_track, _all_edges, _grown_negative, _one_cell,
             _high_band_only_self, _empty_mid_band]


@pytest.mark.parametrize("case", MAP_CASES, ids=lambda f: f.__name__[1:])
@pytest.mark.parametrize("tile_cells", [mapping.TILE_CELLS, 1, 50])
def test_interpolate_bit_equal_to_reference(case, tile_cells, monkeypatch):
    gmap, cfg = case()
    monkeypatch.setattr(mapping, "TILE_CELLS", tile_cells)
    out = interpolate(gmap, cfg)
    ref = reference_interpolate(gmap, cfg)
    assert out.values.tobytes() == ref.values.tobytes()
    assert out.counts.dtype == ref.counts.dtype
    assert np.array_equal(out.counts, ref.counts)
    assert (out.origin, out.resolution) == (ref.origin, ref.resolution)


def test_empty_mid_band_case_has_no_offsets():
    _, cfg = _empty_mid_band()
    assert mapping._band_offsets(cfg.eps_high, cfg.eps_mid) == []


@pytest.mark.parametrize("case", MAP_CASES, ids=lambda f: f.__name__[1:])
def test_map_files_byte_equal_to_reference(case, tmp_path):
    gmap, cfg = case()
    for name, m in (("raw", gmap), ("interp", interpolate(gmap, cfg))):
        for layer in LAYER_NAMES:
            new, ref = tmp_path / f"{name}_{layer}.csv", tmp_path / "ref.csv"
            mapping.export_layer_csv(m, layer, new)
            reference_export_layer_csv(m, layer, ref)
            assert new.read_bytes() == ref.read_bytes()

    new, ref = tmp_path / "state.json", tmp_path / "ref_state.json"
    cli.save_map_state(gmap, new)
    reference_save_map_state(gmap, ref)
    assert new.read_bytes() == ref.read_bytes()

    loaded, ref_loaded = cli.load_map_state(new), reference_load_map_state(new)
    assert loaded.values.tobytes() == ref_loaded.values.tobytes()
    assert np.array_equal(loaded.counts, ref_loaded.counts)
    assert (loaded.origin, loaded.resolution) == (ref_loaded.origin,
                                                  ref_loaded.resolution)


def test_empty_map_state_byte_equal_to_reference(tmp_path):
    new, ref = tmp_path / "state.json", tmp_path / "ref_state.json"
    cli.save_map_state(make_map(width=3, length=2), new)
    reference_save_map_state(make_map(width=3, length=2), ref)
    assert new.read_bytes() == ref.read_bytes()
    assert b'"cells": []' in new.read_bytes()
    assert not cli.load_map_state(new).counts.any()


@pytest.mark.parametrize("where", ["value", "empty_cell_value", "origin",
                                   "resolution"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_map_state_rejects_non_finite(where, bad, tmp_path):
    gmap = make_map(width=3, length=2)
    gmap.counts[1, 1] = 2
    gmap.values[1, 1] = VALS
    path = tmp_path / "state.json"
    if where == "empty_cell_value":
        # a cell that is not written may hold anything
        gmap.values[0, 0, 2] = bad
        cli.save_map_state(gmap, path)
        reference_save_map_state(gmap, tmp_path / "ref_state.json")
        assert path.read_bytes() == (tmp_path / "ref_state.json").read_bytes()
        return
    if where == "value":
        gmap.values[1, 1, 3] = bad
    elif where == "origin":
        gmap.origin = (0.0, bad)
    else:
        gmap.resolution = bad
    with pytest.raises(ValueError):
        cli.save_map_state(gmap, path)
    assert not path.exists()


@pytest.mark.parametrize("resolution", [0.0, -1.0, np.nan, np.inf])
def test_ground_map_rejects_bad_resolution(resolution):
    with pytest.raises(ValueError):
        GroundMap.empty(origin=(0.0, 0.0), resolution=resolution)


# --- bulk map build: bit-equality with the per-record reference ---------------------

def _records(positions, scales, rho_s=None):
    """Estimate records at ``positions``; a scale of None is a rejected
    curve-scale extraction."""
    if rho_s is None:
        rho_s = [0.06] * len(positions)
    return [EstimateRecord(t=0.1 * k, position=(float(x), float(y)),
                           mu=(0.5,) * 4, rho_s=float(r), slip=(0.1,) * 4,
                           curve_scale=None if a is None else float(a),
                           cov_diag=(1e-4,) * 10)
            for k, ((x, y), a, r) in enumerate(zip(positions, scales, rho_s))]


def _survey_records():
    """Serpentine swaths at 0.5 m cells with GPS jitter and rejected
    extractions, the field-survey workload in miniature."""
    rng = np.random.default_rng(3)
    xs = np.arange(2.0, 58.0, 0.2)
    positions = []
    for lane, y in enumerate(np.arange(2.0, 18.0, 4.0)):
        positions += [(x, y) for x in (xs if lane % 2 == 0 else xs[::-1])]
    positions = np.array(positions) + rng.normal(0.0, 0.3, (len(positions), 2))
    scales = [None if rng.random() < 0.02 else a
              for a in 0.7 + rng.normal(0.0, 0.03, len(positions))]
    return _records(positions, scales, 0.06 + rng.normal(0.0, 0.003, len(positions))), 0.5


def _negative_growth_records():
    # a spiral outwards from the first record: the map grows on every side
    t = np.linspace(0.0, 6 * np.pi, 400)
    positions = np.c_[t * np.cos(t), t * np.sin(t)] * 1.7 + (3.3, -2.1)
    return _records(positions, 0.7 + 0.1 * np.sin(t), 0.05 + 0.01 * np.cos(t)), 0.5


def _stationary_records():
    # about 500 records in one cell: a vehicle standing still
    rng = np.random.default_rng(4)
    positions = (10.4, 20.6) + rng.uniform(0.0, 0.9, (500, 2))
    positions[0] = (10.4, 20.6)
    return _records(positions, 0.7 + rng.normal(0.0, 0.05, 500),
                    0.06 + rng.normal(0.0, 0.01, 500)), 1.0


def _rejected_records():
    # the first records and every third one have no curve scale; the map
    # starts at the first kept record
    rng = np.random.default_rng(5)
    positions = rng.uniform(-4.0, 9.0, (90, 2))
    scales = [None if k < 4 or k % 3 == 0 else 0.6 + 0.001 * k for k in range(90)]
    return _records(positions, scales), 0.25


def _negative_zero_records():
    positions = [(-0.0, -0.0), (0.0, -0.0), (-0.0, 0.3), (-0.6, -0.0), (0.2, 0.1)]
    return _records(positions, [-0.0, 0.0, -0.0, -0.0, 0.5],
                    [-0.0, -0.0, 0.0, -0.0, -0.0]), 0.5


def _single_record():
    return _records([(123.456, -78.9)], [0.8]), 0.5


BUILD_CASES = [_survey_records, _negative_growth_records, _stationary_records,
               _rejected_records, _negative_zero_records, _single_record]


def _assert_builds_equal(records, resolution, monkeypatch):
    grown = {"new": 0, "ref": 0}

    def counting(key, grow):
        def wrapper(gmap, pos):
            grown[key] += 1
            return grow(gmap, pos)
        return wrapper

    monkeypatch.setattr(mapping, "grow_to_include",
                        counting("new", mapping.grow_to_include))
    monkeypatch.setattr(oracles, "grow_to_include",
                        counting("ref", oracles.grow_to_include))
    new = cli.build_map(records, resolution=resolution)
    ref = reference_build_map(records, resolution=resolution)
    assert grown["new"] == grown["ref"]
    if ref is None:
        assert new is None
        return None
    assert new.origin == ref.origin
    assert np.array(new.origin).tobytes() == np.array(ref.origin).tobytes()
    assert new.resolution == ref.resolution
    assert new.values.tobytes() == ref.values.tobytes()
    assert new.counts.dtype == ref.counts.dtype
    assert np.array_equal(new.counts, ref.counts)
    return new


@pytest.mark.parametrize("case", BUILD_CASES, ids=lambda f: f.__name__[1:])
def test_build_map_bit_equal_to_reference(case, monkeypatch):
    records, resolution = case()
    gmap = _assert_builds_equal(records, resolution, monkeypatch)
    assert gmap.counts.sum() == sum(r.curve_scale is not None for r in records)


def test_stationary_case_stacks_one_cell():
    records, resolution = _stationary_records()
    gmap = cli.build_map(records, resolution=resolution)
    assert gmap.shape == (1, 1) and gmap.counts[0, 0] == 500


def test_build_map_without_curve_scales_is_none():
    assert cli.build_map(_records([(1.0, 2.0)] * 3, [None] * 3)) is None


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0),
                               st.one_of(st.none(), st.floats(-2.0, 2.0)),
                               st.floats(-1.0, 1.0)),
                     min_size=1, max_size=60),
       resolution=st.sampled_from([0.25, 0.3, 0.5, 1.0, 2.0]),
       repeat=st.integers(1, 4))
def test_build_map_bit_equal_to_reference_on_generated_streams(rows, resolution,
                                                               repeat):
    # ``repeat`` replays each row so that cells collect several records
    rows = [row for row in rows for _ in range(repeat)]
    records = _records([(x, y) for x, y, _, _ in rows], [a for _, _, a, _ in rows],
                       [r for _, _, _, r in rows])
    try:
        reference_build_map(records, resolution=resolution)
    except OutOfBounds:
        # the reference's rounding edge, covered by its own test below
        assume(False)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_builds_equal(records, resolution, monkeypatch)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("at", [0, 3])
# an inf origin makes inf - inf in the cell computation before the raise
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_build_map_non_finite_position_raises_like_reference(bad, at):
    records, resolution = _rejected_records()
    kept = [k for k, r in enumerate(records) if r.curve_scale is not None]
    k = kept[at]
    records[k] = EstimateRecord(**{**records[k].__dict__,
                                   "position": (records[k].position[0], bad)})
    with pytest.raises(Exception) as ref:
        reference_build_map(records, resolution=resolution)
    with pytest.raises(type(ref.value)):
        cli.build_map(records, resolution=resolution)


@pytest.mark.parametrize("field", ["curve_scale", "rho_s"])
def test_build_map_non_finite_value_raises_like_reference(field):
    records, resolution = _survey_records()
    records[7] = EstimateRecord(**{**records[7].__dict__, field: float("nan")})
    with pytest.raises(ValueError, match="values must be finite"):
        reference_build_map(records, resolution=resolution)
    with pytest.raises(ValueError, match="values must be finite"):
        cli.build_map(records, resolution=resolution)


def test_build_map_grows_again_where_rounding_leaves_a_record_outside():
    # Growing below the origin shifts it by whole cells; here the record's
    # index against the shifted origin rounds to -1, so the per-record
    # reference raised.  The bulk build grows once more and keeps it.
    records = _records([(42.99075236636783, 0.0), (-76.00924763363217, 0.0)],
                       [0.7, 0.8])
    with pytest.raises(OutOfBounds):
        reference_build_map(records, resolution=0.7)
    gmap = cli.build_map(records, resolution=0.7)
    assert gmap.counts.sum() == 2
    for rec in records:
        i = int(np.floor((rec.position[0] - gmap.origin[0]) / gmap.resolution))
        j = int(np.floor((rec.position[1] - gmap.origin[1]) / gmap.resolution))
        assert 0 <= i < gmap.shape[0] and 0 <= j < gmap.shape[1]
        assert gmap.values[i, j, 0] == rec.curve_scale


# --- CSV layer export/import -------------------------------------------------

def test_layer_csv_round_trip(tmp_path):
    gmap = make_map()
    insert_auto(gmap, [(2.5, 3.5), (7.5, 1.5)], [VALS, VALS * 1.5])
    path = tmp_path / "layer_a.csv"
    mapping.export_layer_csv(gmap, "a", path)
    layer, cells = import_layer_csv(path)
    assert layer == "a"
    assert cells[(2, 3)] == pytest.approx(VALS[0])
    assert cells[(7, 1)] == pytest.approx(VALS[0] * 1.5)
    assert len(cells) == 2


def test_layer_csv_rejects_unknown_layer(tmp_path):
    gmap = make_map()
    insert_auto(gmap, [(2.5, 3.5)], [VALS])
    with pytest.raises(ValueError):
        mapping.export_layer_csv(gmap, "bogus", tmp_path / "x.csv")


def test_layer_names_cover_soil_parameters():
    assert LAYER_NAMES == ("a", "p", "alpha1", "alpha2", "rho_s")

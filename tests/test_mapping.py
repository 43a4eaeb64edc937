import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_interpolate,
    import_layer_csv,
    reference_export_layer_csv,
    reference_interpolate,
    reference_load_map_state,
    reference_save_map_state,
)
from tractionmap import cli, mapping
from tractionmap.mapping import (
    LAYER_NAMES,
    GroundMap,
    InterpolationConfig,
    OutOfBounds,
    grow_to_include,
    insert,
    insert_auto,
    interpolate,
    world_to_grid,
)

VALS = np.array([0.7, 0.6, -20.0, -3.0, 0.06])


def make_map(width=12, length=12, origin=(0.0, 0.0), resolution=1.0):
    return GroundMap.empty(origin=origin, resolution=resolution,
                           width=width, length=length)


# --- world/grid transform ---------------------------------------------------

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
    insert(gmap, (3.5, 3.5), VALS)
    assert gmap.counts[3, 3] == 1
    assert np.allclose(gmap.values[3, 3], VALS)


def test_insert_running_mean():
    gmap = make_map()
    insert(gmap, (1.0, 1.0), np.full(5, 0.2))
    insert(gmap, (1.2, 1.8), np.full(5, 0.4))
    assert gmap.counts[1, 1] == 2
    assert np.allclose(gmap.values[1, 1], 0.3)


def test_insert_validates_values():
    gmap = make_map()
    with pytest.raises(ValueError):
        insert(gmap, (1.0, 1.0), [1.0, 2.0])
    with pytest.raises(ValueError):
        insert(gmap, (1.0, 1.0), [np.nan] * 5)


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=8),
       seed=st.integers(0, 1000))
def test_insert_order_invariance(values, seed):
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(values))
    a, b = make_map(), make_map()
    for v in values:
        insert(a, (2.0, 2.0), np.full(5, v))
    for k in order:
        insert(b, (2.0, 2.0), np.full(5, values[k]))
    assert a.counts[2, 2] == b.counts[2, 2] == len(values)
    assert np.abs(a.values[2, 2] - b.values[2, 2]).max() < 1e-12
    # running mean equals the arithmetic mean of everything inserted
    assert np.abs(a.values[2, 2] - np.mean(values)).max() < 1e-12


# --- growth -------------------------------------------------------------------

def test_grow_preserves_world_anchoring():
    gmap = make_map(width=2, length=2, origin=(10.0, 20.0))
    insert(gmap, (10.5, 20.5), VALS)
    grown = grow_to_include(gmap, (25.0, 20.0))
    assert world_to_grid((25.0, 20.0), grown)
    i, j = world_to_grid((10.5, 20.5), grown)
    assert grown.counts[i, j] == 1
    assert np.allclose(grown.values[i, j], VALS)


def test_grow_handles_negative_indices():
    gmap = make_map(width=2, length=2, origin=(0.0, 0.0))
    insert(gmap, (0.5, 0.5), VALS)
    grown = grow_to_include(gmap, (-3.0, -1.0))
    i, j = world_to_grid((0.5, 0.5), grown)
    assert np.allclose(grown.values[i, j], VALS)
    assert world_to_grid((-3.0, -1.0), grown)


def test_insert_auto_grows():
    gmap = make_map(width=1, length=1)
    gmap = insert_auto(gmap, (0.5, 0.5), VALS)
    gmap = insert_auto(gmap, (7.5, 0.5), VALS * 2)
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
    insert(gmap, (5.5, 5.5), VALS)
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
    for i in range(12):
        for j in range(12):
            insert(gmap, (i + 0.5, j + 0.5), VALS)
    out = interpolate(gmap)
    assert np.allclose(out.values, np.broadcast_to(VALS, out.values.shape),
                       atol=1e-12)


def test_interpolate_idempotent_on_constant_field():
    gmap = make_map()
    insert(gmap, (2.5, 2.5), VALS)
    once = interpolate(gmap)
    twice = interpolate(once)
    reached = once.counts > 0
    assert np.allclose(once.values[reached], twice.values[reached], atol=1e-12)


def test_far_cells_stay_empty():
    gmap = make_map(width=30, length=3)
    insert(gmap, (0.5, 1.5), VALS)
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
    insert(gmap, (2.5, 2.5), VALS)
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
    gmap = None
    for lane, y in enumerate(np.arange(1.0, 9.0, 2.0)):
        xs = np.arange(1.0, 39.0, 0.2)
        for x in xs if lane % 2 == 0 else xs[::-1]:
            if rng.random() < 0.1:
                continue
            pos = (float(x + rng.normal(0.0, 0.05)),
                   float(y + rng.normal(0.0, 0.05)))
            vals = VALS + rng.normal(0.0, 0.02, 5)
            if gmap is None:
                gmap = GroundMap.empty(origin=pos, resolution=0.5)
            gmap = insert_auto(gmap, pos, vals)
    return gmap, InterpolationConfig()


def _all_edges():
    rng = np.random.default_rng(5)
    gmap = make_map(width=30, length=20)
    for i, j in [(0, 0), (0, 7), (0, 19), (13, 0), (29, 0), (29, 11),
                 (29, 19), (21, 19), (14, 9)]:
        gmap.counts[i, j] = 1 + rng.integers(0, 3)
        gmap.values[i, j] = rng.uniform(-1.0, 1.0, 5)
    return gmap, InterpolationConfig()


def _grown_negative():
    gmap = GroundMap.empty(origin=(0.0, 0.0))
    for pos, scale in [((0.5, 0.5), 1.0), ((-7.3, -12.1), 1.3),
                       ((3.2, -1.4), 0.8), ((-20.5, 4.9), 1.1)]:
        gmap = insert_auto(gmap, pos, VALS * scale)
    assert gmap.origin[0] < 0.0 and gmap.origin[1] < 0.0
    return gmap, InterpolationConfig()


def _one_cell():
    gmap = make_map(width=1, length=1)
    insert(gmap, (0.5, 0.5), VALS)
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


# --- CSV layer export/import -------------------------------------------------

def test_layer_csv_round_trip(tmp_path):
    gmap = make_map()
    insert(gmap, (2.5, 3.5), VALS)
    insert(gmap, (7.5, 1.5), VALS * 1.5)
    path = tmp_path / "layer_a.csv"
    mapping.export_layer_csv(gmap, "a", path)
    layer, cells = import_layer_csv(path)
    assert layer == "a"
    assert cells[(2, 3)] == pytest.approx(VALS[0])
    assert cells[(7, 1)] == pytest.approx(VALS[0] * 1.5)
    assert len(cells) == 2


def test_layer_csv_rejects_unknown_layer(tmp_path):
    gmap = make_map()
    insert(gmap, (2.5, 3.5), VALS)
    with pytest.raises(ValueError):
        mapping.export_layer_csv(gmap, "bogus", tmp_path / "x.csv")


def test_layer_names_cover_soil_parameters():
    assert LAYER_NAMES == ("a", "p", "alpha1", "alpha2", "rho_s")

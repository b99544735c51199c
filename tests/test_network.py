"""Route-network geometry: distances, times, feasibility, and file loading."""

from __future__ import annotations

import math

import numpy as np
import pytest

from uamsim import (
    ConfigError,
    GeoNode,
    IngestionError,
    ValidationError,
    VehicleSpec,
    build_network,
    haversine_distance,
    load_nodes_csv,
)

EARTH_RADIUS_MI = 3958.8


def law_of_cosines_mi(a: GeoNode, b: GeoNode) -> float:
    """Independent geodesic oracle: spherical law of cosines on the same sphere."""
    la1, lo1 = math.radians(a.lat), math.radians(a.lon)
    la2, lo2 = math.radians(b.lat), math.radians(b.lon)
    c = math.sin(la1) * math.sin(la2) + math.cos(la1) * math.cos(la2) * math.cos(lo2 - lo1)
    return EARTH_RADIUS_MI * math.acos(max(-1.0, min(1.0, c)))


# Oracle values frozen from law_of_cosines_mi before the main implementation.
ORACLE_MI = {
    ("SFO", "OAK"): 10.995,
    ("SFO", "SJC"): 30.206,
    ("SFO", "PAO"): 17.942,
    ("OAK", "SJC"): 29.516,
    ("OAK", "PAO"): 18.892,
    ("SJC", "PAO"): 12.280,
}


def test_distance_to_self_is_zero(bay_nodes):
    assert haversine_distance(bay_nodes[0], bay_nodes[0]) == 0.0


@pytest.mark.parametrize("pair,expected", sorted(ORACLE_MI.items()))
def test_distances_match_independent_oracle(bay_nodes, pair, expected):
    by_code = {n.code: n for n in bay_nodes}
    a, b = by_code[pair[0]], by_code[pair[1]]
    d = haversine_distance(a, b)
    assert d == pytest.approx(expected, abs=0.1)
    assert d == pytest.approx(law_of_cosines_mi(a, b), abs=0.01)


def test_distance_symmetric(bay_nodes):
    for a in bay_nodes:
        for b in bay_nodes:
            assert haversine_distance(a, b) == haversine_distance(b, a)


def test_all_pair_distances_in_short_hop_range(bay_nodes):
    dists = [
        haversine_distance(a, b)
        for i, a in enumerate(bay_nodes)
        for b in bay_nodes[i + 1:]
    ]
    assert min(dists) >= 10.9
    assert max(dists) <= 30.3


def test_bad_coordinates_rejected():
    with pytest.raises(ValidationError):
        GeoNode(0, "BAD", 91.0, 0.0)
    with pytest.raises(ValidationError):
        GeoNode(0, "BAD", 0.0, -181.0)


def test_network_matrices(net, bay_nodes):
    assert net.n == 4
    assert np.array_equal(net.dist, net.dist.T)
    assert np.array_equal(net.air_time, net.air_time.T)
    assert (np.diagonal(net.dist) == 0).all()
    # air time is 60 d / v off the diagonal
    for i in range(4):
        for j in range(4):
            if i != j:
                assert net.air_time[i, j] == pytest.approx(60.0 * net.dist[i, j] / 150.0)


def test_all_twelve_ordered_pairs_feasible_at_default_range(net):
    off_diag = net.feasible.sum()
    assert off_diag == 12
    assert not net.feasible.diagonal().any()


def test_short_range_knocks_out_long_pairs(bay_nodes):
    short = VehicleSpec(max_range_mi=20.0)
    net = build_network(bay_nodes, short)
    sfo, oak, sjc, pao = range(4)
    assert not net.feasible[sfo, sjc] and not net.feasible[sjc, sfo]
    assert not net.feasible[oak, sjc] and not net.feasible[sjc, oak]
    assert net.feasible[sfo, oak]
    assert net.feasible[sjc, pao]


def test_single_node_network_has_no_routes(spec):
    net = build_network([GeoNode(0, "SFO", 37.6190, -122.3750)], spec)
    assert net.feasible.sum() == 0
    assert net.dist.shape == (1, 1)


def test_duplicate_codes_rejected(spec):
    nodes = [GeoNode(0, "SFO", 37.6, -122.4), GeoNode(1, "SFO", 37.7, -122.2)]
    with pytest.raises(ConfigError):
        build_network(nodes, spec)


def test_triangle_inequality(net):
    n = net.n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) == 3:
                    assert net.dist[i, j] <= net.dist[i, k] + net.dist[k, j] + 1e-6


def test_doubling_speed_halves_air_time(bay_nodes, spec, net):
    fast = VehicleSpec(cruise_speed_mph=300.0)
    net_fast = build_network(bay_nodes, fast)
    off = ~np.eye(4, dtype=bool)
    assert np.allclose(net_fast.air_time[off], net.air_time[off] / 2.0)


def test_vehicle_spec_validation():
    with pytest.raises(ValidationError):
        VehicleSpec(cruise_speed_mph=0.0)
    with pytest.raises(ValidationError):
        VehicleSpec(capacity=-2)
    with pytest.raises(ValidationError, match="turnaround_min must be an integer"):
        VehicleSpec(turnaround_min=10.5)  # the loader refuses it too, but not every caller loads


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["cruise_speed_mph", "max_range_mi"])
def test_vehicle_spec_refuses_a_non_finite_number(name, value):
    # the loader refuses these in JSON, but not every caller loads: a NaN
    # speed once ran a day whose legs landed near minute -2**63
    with pytest.raises(ValidationError, match=f"{name} must be positive and finite, got {value}"):
        VehicleSpec(**{name: value})


def test_load_nodes_csv_roundtrip(tmp_path, bay_nodes):
    path = tmp_path / "nodes.csv"
    path.write_text(
        "id,code,lat,lon\n"
        + "".join(f"{n.id},{n.code},{n.lat},{n.lon}\n" for n in bay_nodes)
    )
    assert load_nodes_csv(path) == bay_nodes


def test_load_nodes_csv_errors(tmp_path):
    missing = tmp_path / "nope.csv"
    with pytest.raises(IngestionError):
        load_nodes_csv(missing)
    gap = tmp_path / "gap.csv"
    gap.write_text("id,code,lat,lon\n0,SFO,37.6,-122.4\n2,OAK,37.7,-122.2\n")
    with pytest.raises(ConfigError, match="contiguous"):  # build_network checks the node set
        build_network(load_nodes_csv(gap), VehicleSpec())
    bad = tmp_path / "bad.csv"
    bad.write_text("id,code,lat,lon\n0,SFO,not-a-number,-122.4\n")
    with pytest.raises(IngestionError):
        load_nodes_csv(bad)

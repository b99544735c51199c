"""Demand ingestion, rate arithmetic, and the Poisson arrival stream."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uamsim import (
    DemandRates,
    IngestionError,
    ODMatrix,
    RiderRequest,
    ValidationError,
    compute_rates,
    expected_arrivals,
    generate_arrivals,
    load_od_csv,
)

from uamsim import demand

from conftest import single_pair_rates


def _od(counts) -> ODMatrix:
    return ODMatrix(counts=np.asarray(counts, dtype=np.int64))


# -- ingestion ---------------------------------------------------------------

def test_load_od_csv_row_echo(tmp_path, net):
    path = tmp_path / "od.csv"
    path.write_text("origin,dest,monthly_pax\nSFO,OAK,5400\n")
    od = load_od_csv(path, net)
    assert od.counts[0, 1] == 5400
    assert od.counts.sum() == 5400


def test_load_od_csv_header_only_gives_zero_matrix(tmp_path, net):
    path = tmp_path / "od.csv"
    path.write_text("origin,dest,monthly_pax\n")
    od = load_od_csv(path, net)
    assert od.counts.sum() == 0


def test_load_od_csv_diagonal_rejected(tmp_path, net):
    path = tmp_path / "od.csv"
    path.write_text("origin,dest,monthly_pax\nSFO,SFO,10\n")
    with pytest.raises(IngestionError, match="2"):
        load_od_csv(path, net)


def test_load_od_csv_unknown_code_names_row(tmp_path, net):
    path = tmp_path / "od.csv"
    path.write_text("origin,dest,monthly_pax\nSFO,OAK,5\nLAX,SFO,9\n")
    with pytest.raises(IngestionError, match=r"3.*LAX|LAX"):
        load_od_csv(path, net)


def test_load_od_csv_negative_count_rejected(tmp_path, net):
    path = tmp_path / "od.csv"
    path.write_text("origin,dest,monthly_pax\nSFO,OAK,-1\n")
    with pytest.raises(IngestionError):
        load_od_csv(path, net)


def test_load_od_csv_short_row_rejected(tmp_path, net):
    path = tmp_path / "od.csv"
    path.write_text("origin,dest,monthly_pax\nSFO\n")
    with pytest.raises(IngestionError):
        load_od_csv(path, net)


def test_negative_seed_rejected(baseline_rates):
    with pytest.raises(ValidationError):
        generate_arrivals(baseline_rates, 10, seed=-1)


def test_od_matrix_invariants():
    with pytest.raises(ValidationError):
        _od([[1, 0], [0, 0]])  # nonzero diagonal
    with pytest.raises(ValidationError):
        _od([[0, -3], [0, 0]])


# -- rates --------------------------------------------------------------------

@pytest.mark.parametrize("per_min, message", [
    (np.array([[0.0, -0.1], [0.0, 0.0]]), "nonnegative"),
    (np.array([[0.0, np.nan], [0.0, 0.0]]), "nonnegative"),
    (np.zeros((2, 3)), "square"),
    (np.zeros(4), "square"),
    # past ~745/min e^-rate is 0.0, and every count stopped near 746
    (np.array([[0.0, 800.0], [0.0, 0.0]]), r"pair \(0, 1\) has 800.0000 pax/min, beyond the Poisson"),
], ids=["negative", "nan", "not-square", "not-2d", "800-per-min"])
def test_demand_rates_refuse_what_the_sampler_cannot_draw(per_min, message):
    with pytest.raises(ValidationError, match=message):
        DemandRates(per_min=per_min)


@pytest.mark.parametrize("days, hours, message", [
    (30, math.inf, "op_hours_per_day must be positive and finite, got inf"),  # gave all-zero rates
    (30, math.nan, "op_hours_per_day must be positive and finite, got nan"),
    (math.inf, 20.0, "days_per_month must be positive and finite, got inf"),
    (math.nan, 20.0, "days_per_month must be positive and finite, got nan"),
    pytest.param(10**400, 20.0, f"days_per_month must be positive and finite, got {10**400}",
                 id="days-beyond-float-range"),  # gave a bare OverflowError
])
def test_compute_rates_refuses_a_non_finite_month(days, hours, message):
    with pytest.raises(ValidationError) as err:
        compute_rates(_od([[0, 100], [0, 0]]), days_per_month=days, op_hours_per_day=hours)
    assert str(err.value) == message


def test_rate_unit_denominator():
    od = _od([[0, 36000], [0, 0]])
    rates = compute_rates(od, days_per_month=30, op_hours_per_day=20)
    assert rates.per_min[0, 1] == 1.0


def test_zero_od_gives_zero_rates():
    rates = compute_rates(_od(np.zeros((3, 3))))
    assert rates.total_rate == 0.0


def test_baseline_total_rate(baseline_world):
    _, _, od, rates = baseline_world
    assert od.total_monthly == 18576
    assert rates.total_rate == pytest.approx(0.516, abs=1e-12)


def test_rate_linearity():
    base = _od([[0, 120, 30], [60, 0, 90], [10, 20, 0]])
    scaled = ODMatrix(counts=base.counts * 7)
    r1 = compute_rates(base)
    r7 = compute_rates(scaled)
    assert np.allclose(r7.per_min, 7 * r1.per_min)
    assert r7.total_rate == pytest.approx(7 * r1.total_rate)


def test_expected_arrivals():
    od = _od([[0, 36000], [0, 0]])
    rates = compute_rates(od)
    assert expected_arrivals(rates, 60) == 60.0
    assert expected_arrivals(compute_rates(_od(np.zeros((2, 2)))), 500) == 0.0
    with pytest.raises(ValidationError):
        expected_arrivals(rates, 0)


# -- arrival stream -----------------------------------------------------------

def test_zero_rates_generate_nothing(net):
    rates = single_pair_rates(net, 0.0)
    assert generate_arrivals(rates, 100, seed=1) == []


def knuth_oracle(rates: DemandRates, t_sim: int, seed: int) -> tuple[list[RiderRequest], int]:
    """The arrival contract drawn one ``Generator.random()`` call per uniform.

    Returns the riders and the number of uniforms used.
    """
    gen = np.random.Generator(np.random.PCG64(seed))
    n = rates.per_min.shape[0]
    riders, used = [], 0
    for minute in range(t_sim):
        for i in range(n):
            for j in range(n):
                rate = float(rates.per_min[i, j])
                if i == j or rate <= 0.0:
                    continue
                k, p = 0, gen.random()
                used += 1
                while p > math.exp(-rate):
                    k += 1
                    p *= gen.random()
                    used += 1
                riders += [RiderRequest(len(riders) + m, i, j, minute) for m in range(k)]
    return riders, used


def _oracle_case(case, net, baseline_rates):
    """(rates, t_sim, min_used) for one named oracle case."""
    if case == "single_pair_rate_5":
        # ~6 uniforms a minute, and nearly every draw runs the product
        # loop: at seed 8 both 8192-uniform chunk boundaries fall inside one
        return single_pair_rates(net, 5.0), 3000, 2 * 8192
    if case == "baseline":
        return baseline_rates, 300, 0
    if case == "hot_pair_beside_cold":
        # one pair at 1.0/min beside the baseline's pairs, all below 0.09/min
        per_min = baseline_rates.per_min.copy()
        per_min[0, 2] = 1.0
        return DemandRates(per_min=per_min), 300, 0
    if case == "random_5_node":
        rng = np.random.default_rng(17)
        per_min = rng.uniform(0.0, 3.0, size=(5, 5))
        per_min[rng.random((5, 5)) < 0.3] = 0.0
        np.fill_diagonal(per_min, 0.0)
        return DemandRates(per_min=per_min), 200, 0
    assert case == "t_sim_1"
    return baseline_rates, 1, 0


ORACLE_CASES = ["single_pair_rate_5", "baseline", "hot_pair_beside_cold", "random_5_node", "t_sim_1"]


# each case at the default chunk size, then with chunks of 1, 2 and 7
# uniforms, so that products cross many chunk edges
@pytest.mark.parametrize(
    "case, chunk",
    [(case, chunk) for chunk in (None, 1, 2, 7) for case in ORACLE_CASES],
    ids=[case if chunk is None else f"{case}-chunk{chunk}" for chunk in (None, 1, 2, 7) for case in ORACLE_CASES],
)
def test_stream_equals_scalar_knuth_oracle(case, chunk, net, baseline_rates, monkeypatch):
    rates, t_sim, min_used = _oracle_case(case, net, baseline_rates)
    if chunk is not None:
        monkeypatch.setattr(demand, "_CHUNK", chunk)
    expected, used = knuth_oracle(rates, t_sim, seed=8)
    assert used > min_used
    assert generate_arrivals(rates, t_sim, seed=8) == expected


@settings(deadline=None)
@given(
    cells=st.lists(st.sampled_from([0.0, 0.0, 1e-3, 0.02, 0.09, 0.4, 1.0, 3.0]), min_size=16, max_size=16),
    n=st.integers(min_value=2, max_value=4),
    t_sim=st.integers(min_value=1, max_value=50),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    chunk=st.sampled_from([1, 2, 7, 8192]),
)
def test_stream_equals_oracle_on_random_matrices(cells, n, t_sim, seed, chunk):
    # the diagonal may be positive too: the stream skips it like a zero rate
    rates = DemandRates(per_min=np.array(cells[: n * n]).reshape(n, n))
    with mock.patch.object(demand, "_CHUNK", chunk):
        riders = generate_arrivals(rates, t_sim, seed)
    assert riders == knuth_oracle(rates, t_sim, seed)[0]


def test_same_seed_reproduces_stream(baseline_rates):
    a = generate_arrivals(baseline_rates, 300, seed=99)
    b = generate_arrivals(baseline_rates, 300, seed=99)
    assert a == b
    c = generate_arrivals(baseline_rates, 300, seed=100)
    assert a != c


def test_rider_fields_well_formed(baseline_rates):
    riders = generate_arrivals(baseline_rates, 240, seed=5)
    assert [r.rider_id for r in riders] == list(range(len(riders)))
    for r in riders:
        assert r.origin != r.dest
        assert 0 <= r.arrival_min < 240
    # arrival minutes are non-decreasing in generation order
    mins = [r.arrival_min for r in riders]
    assert mins == sorted(mins)


def test_riders_of_one_minute_share_one_int(baseline_rates):
    # minutes past 256 are not cached by CPython; one object per minute
    # keeps a day's rider list small
    riders = generate_arrivals(baseline_rates, 1200, seed=5)
    assert max(r.arrival_min for r in riders) > 256
    assert len({id(r.arrival_min) for r in riders}) == len({r.arrival_min for r in riders})


def test_single_pair_count_near_mean(net):
    # one run at lambda = 1.0 over 1200 minutes: 1200 +- 3*sqrt(1200)
    rates = single_pair_rates(net, 1.0)
    riders = generate_arrivals(rates, 1200, seed=11)
    assert abs(len(riders) - 1200) <= 3 * 1200 ** 0.5


def test_mean_over_seeds_tight(net):
    rates = single_pair_rates(net, 1.0)
    totals = [len(generate_arrivals(rates, 1200, seed=s)) for s in range(100)]
    grand_mean = sum(totals) / len(totals)
    # standard error of the mean over 100 seeds is sqrt(1200/100)
    assert abs(grand_mean - 1200) <= 3 * (1200 / 100) ** 0.5


def test_per_minute_counts_fit_poisson(net):
    scipy_stats = pytest.importorskip("scipy.stats")
    rates = single_pair_rates(net, 1.0)
    t_sim = 3000
    riders = generate_arrivals(rates, t_sim, seed=42)
    counts = np.zeros(t_sim, dtype=int)
    for r in riders:
        counts[r.arrival_min] += 1
    # bin observed per-minute counts as 0,1,2,...,k and a k+ tail, keeping
    # every expected bin count at 5 or more
    kmax = 4
    observed = np.array(
        [np.sum(counts == k) for k in range(kmax)] + [np.sum(counts >= kmax)],
        dtype=float,
    )
    pmf = [scipy_stats.poisson.pmf(k, 1.0) for k in range(kmax)]
    expected = np.array(pmf + [1.0 - sum(pmf)]) * t_sim
    assert expected.min() >= 5
    chi2 = scipy_stats.chisquare(observed, expected)
    assert chi2.pvalue > 0.01

"""Command-line front end: outputs, exit codes, and reproducibility."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from uamsim import cli
from uamsim.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, main

from conftest import BASELINE_DIR


@pytest.fixture
def scenario_dir(tmp_path):
    """Throwaway copy of the baseline scenario."""
    dst = tmp_path / "scenario"
    shutil.copytree(BASELINE_DIR, dst)
    return dst


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def test_distances_prints_matrices(scenario_dir, capsys):
    assert run_cli("distances", "--config", scenario_dir / "config.json") == EXIT_OK
    out = capsys.readouterr().out
    assert "30.206" in out  # longest pair
    assert "yes" in out
    assert out.count("SFO") >= 6  # row+column labels in three matrices


def test_distances_single_node_scenario(tmp_path, capsys):
    (tmp_path / "nodes.csv").write_text("id,code,lat,lon\n0,SFO,37.6190,-122.3750\n")
    (tmp_path / "od.csv").write_text("origin,dest,monthly_pax\n")
    (tmp_path / "config.json").write_text(json.dumps({"nodes": "nodes.csv", "od": "od.csv"}))
    assert run_cli("distances", "--config", tmp_path / "config.json") == EXIT_OK
    out = capsys.readouterr().out
    assert "0.000" in out


def test_demand_expectation_scales_with_horizon(scenario_dir, capsys):
    assert run_cli(
        "demand", "--config", scenario_dir / "config.json", "--minutes", "60",
    ) == EXIT_OK
    out = capsys.readouterr().out
    assert "0.516000" in out  # rates do not depend on the horizon
    assert "30.960" in out    # expectation scales linearly: 0.516 * 60


def test_missing_nodes_file_exits_2(scenario_dir, capsys):
    (scenario_dir / "nodes.csv").unlink()
    assert run_cli("distances", "--config", scenario_dir / "config.json") == EXIT_CONFIG
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("rows, message", [
    (["0,SFO,37.6,-122.4", "1,SFO,37.7,-122.2"], "duplicate node codes"),
    (["0,SFO,37.6,-122.4", "2,OAK,37.7,-122.2"], "node ids must be contiguous 0..n-1"),
], ids=["duplicate-code", "id-gap"])
def test_bad_node_set_exits_2(scenario_dir, capsys, rows, message):
    (scenario_dir / "nodes.csv").write_text("\n".join(["id,code,lat,lon", *rows, ""]))
    assert run_cli("distances", "--config", scenario_dir / "config.json") == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


def test_missing_config_exits_2(tmp_path, capsys):
    assert run_cli("demand", "--config", tmp_path / "nope.json") == EXIT_CONFIG


def test_demand_reports_total_rate(scenario_dir, capsys):
    assert run_cli("demand", "--config", scenario_dir / "config.json") == EXIT_OK
    out = capsys.readouterr().out
    assert "0.516000" in out
    assert "619.200" in out


def test_size_fleet_json(scenario_dir, capsys):
    assert run_cli("size-fleet", "--config", scenario_dir / "config.json") == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["fleet"] == 8
    assert report["demand_per_hour"] == pytest.approx(30.96)


def test_size_fleet_alpha_flag(scenario_dir, capsys):
    assert run_cli("size-fleet", "--config", scenario_dir / "config.json", "--alpha", "5.0") == EXIT_OK
    assert json.loads(capsys.readouterr().out)["fleet"] == 20


def test_simulate_writes_outputs_and_conserves(scenario_dir, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = run_cli(
        "simulate", "--config", scenario_dir / "config.json",
        "--out", out_dir, "--fleet", "32", "--seed", "7", "--minutes", "1200",
    )
    assert code == EXIT_OK
    for name in ("report.json", "trips.csv", "riders.csv", "waits.csv",
                 "heatmap_demand.csv", "heatmap_served.csv"):
        assert (out_dir / name).exists()
    report = json.loads((out_dir / "report.json").read_text())
    sim = report["simulation"]
    assert sim["generated"] == sim["served"] + sim["onboard_at_end"] + sim["unserved"]
    assert report["config"]["fleet"] == 32
    assert report["config"]["seed"] == 7
    assert report["rng"] == "pcg64"


def test_simulate_rerun_is_byte_identical(scenario_dir, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run_cli(
            "simulate", "--config", scenario_dir / "config.json",
            "--out", out, "--fleet", "12", "--seed", "5", "--minutes", "600",
        ) == EXIT_OK
    for name in ("report.json", "trips.csv", "riders.csv", "waits.csv",
                 "heatmap_demand.csv", "heatmap_served.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_simulate_builds_the_waits_once(scenario_dir, tmp_path, monkeypatch):
    from uamsim.simulate import SimResult

    calls = []
    waits = SimResult.waits.func  # the cached property's builder

    def counted(self):
        calls.append(self)
        return waits(self)

    monkeypatch.setattr(SimResult.waits, "func", counted)
    assert run_cli(
        "simulate", "--config", scenario_dir / "config.json",
        "--out", tmp_path / "out", "--fleet", "12", "--seed", "5", "--minutes", "600",
    ) == EXIT_OK
    assert len(calls) == 1


def test_simulate_single_vehicle_fails_wait_target(scenario_dir, tmp_path):
    out_dir = tmp_path / "out"
    assert run_cli(
        "simulate", "--config", scenario_dir / "config.json",
        "--out", out_dir, "--fleet", "1", "--seed", "3",
    ) == EXIT_OK
    report = json.loads((out_dir / "report.json").read_text())
    assert not report["metrics"]["wait_ok"]
    assert report["simulation"]["unserved"] > 0


def test_compare_savings_near_eighty_percent(scenario_dir, capsys):
    assert run_cli(
        "compare", "--config", scenario_dir / "config.json", "--wait", "7.47",
    ) == EXIT_OK
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith("SFO-SJC")]
    assert len(lines) == 1
    savings = float(lines[0].split()[-1])
    assert savings == pytest.approx(0.79, abs=0.02)
    # all six unordered pairs are printed
    pair_lines = [line for line in out.splitlines() if "-" in line and line[:3].isalpha()]
    assert len(pair_lines) == 6


def test_compare_without_cost_section_exits_2(scenario_dir, capsys):
    doc = json.loads((scenario_dir / "config.json").read_text())
    del doc["cost"]
    (scenario_dir / "config.json").write_text(json.dumps(doc))
    assert run_cli("compare", "--config", scenario_dir / "config.json") == EXIT_CONFIG


def test_sweep_writes_table_and_picks_fleet(scenario_dir, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = run_cli(
        "sweep", "--config", scenario_dir / "config.json",
        "--out", out_dir, "--n-min", "12", "--n-max", "20",
        "--seeds", "2", "--minutes", "600",
    )
    assert code == EXIT_OK
    table = (out_dir / "sweep.csv").read_text().splitlines()
    assert table[0].startswith("fleet,mean_wait")
    assert len(table) == 1 + (20 - 12 + 1)
    assert "smallest fleet meeting the wait target" in capsys.readouterr().out


def test_simulate_without_fleet_uses_sizing_and_refinement(scenario_dir, tmp_path):
    doc = json.loads((scenario_dir / "config.json").read_text())
    doc["fleet"] = None
    doc["seeds"] = 1
    (scenario_dir / "config.json").write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert run_cli(
        "simulate", "--config", scenario_dir / "config.json",
        "--out", out_dir, "--minutes", "400", "--seed", "1",
    ) == EXIT_OK
    report = json.loads((out_dir / "report.json").read_text())
    assert report["refined_fleet"] is not None
    assert report["config"]["fleet"] == report["refined_fleet"]
    # the analytical estimate seeds the search, so the result is at least it
    assert report["config"]["fleet"] >= 8
    assert report["metrics"]["wait_ok"]


def test_simulate_refinement_stops_at_its_answer(scenario_dir, tmp_path, monkeypatch):
    """With no fleet pinned, simulate runs sizes upward from the analytical
    estimate (8) only until one meets the wait target (16): 9 sizes x 2
    seeds, not every size up to the refinement bound of 32."""
    import uamsim.metrics
    from uamsim import run_simulation

    fleets_run = []

    def counted(cfg, riders=None):
        fleets_run.append(cfg.fleet)
        return run_simulation(cfg, riders)

    monkeypatch.setattr(uamsim.metrics, "run_simulation", counted)
    doc = json.loads((scenario_dir / "config.json").read_text())
    doc["fleet"] = None
    doc["seeds"] = 2
    (scenario_dir / "config.json").write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert run_cli(
        "simulate", "--config", scenario_dir / "config.json",
        "--out", out_dir, "--seed", "5", "--minutes", "300",
    ) == EXIT_OK
    assert json.loads((out_dir / "report.json").read_text())["refined_fleet"] == 16
    assert len(fleets_run) == 18
    assert fleets_run == [fleet for fleet in range(8, 17) for _ in range(2)]


def test_heatmap_demand_matches_od(scenario_dir, tmp_path):
    out_dir = tmp_path / "out"
    assert run_cli(
        "simulate", "--config", scenario_dir / "config.json",
        "--out", out_dir, "--fleet", "8", "--minutes", "200",
    ) == EXIT_OK
    rows = (out_dir / "heatmap_demand.csv").read_text().splitlines()
    assert rows[0] == ",SFO,OAK,SJC,PAO"
    assert rows[1] == "SFO,0,1300,3000,1000"
    assert rows[3] == "SJC,3200,1800,0,1800"


def test_sweep_infeasible_exits_3(scenario_dir, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = run_cli(
        "sweep", "--config", scenario_dir / "config.json",
        "--out", out_dir, "--n-min", "1", "--n-max", "2",
        "--seeds", "1", "--minutes", "600",
    )
    assert code == EXIT_INFEASIBLE
    assert "infeasible within bound" in capsys.readouterr().err


@pytest.mark.parametrize("bounds, message", [
    (("--n-min", "0"), "n_min must be at least 1, got 0"),
    (("--n-min", "5", "--n-max", "4"), "n_max 4 below n_min 5"),
])
def test_sweep_bad_bounds_exit_2(scenario_dir, tmp_path, capsys, bounds, message):
    code = run_cli(
        "sweep", "--config", scenario_dir / "config.json", "--out", tmp_path / "out",
        *bounds, "--seeds", "1", "--minutes", "60",
    )
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def write_short_range(scenario_dir) -> None:
    """A 20-mile aircraft: SFO-SJC and OAK-SJC (~30 mi) are beyond range."""
    doc = json.loads((scenario_dir / "config.json").read_text())
    doc["vehicle"]["max_range_mi"] = 20.0
    (scenario_dir / "config.json").write_text(json.dumps(doc))


def test_compare_prices_no_flight_beyond_range(scenario_dir, capsys):
    assert run_cli("compare", "--config", scenario_dir / "config.json") == EXIT_OK
    full = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()[1:-1]}
    write_short_range(scenario_dir)
    assert run_cli("compare", "--config", scenario_dir / "config.json") == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    short = {line.split()[0]: line.split() for line in captured.out.splitlines()[1:-1]}
    assert short.keys() == full.keys()
    for pair in ("SFO-SJC", "OAK-SJC"):
        # pair, gc mi, the mark, then the car's minutes and cost; no air
        # time, air cost or saving
        gc_mi, car_min, car_cost = full[pair][1], full[pair][4], full[pair][5]
        assert short[pair] == [pair, gc_mi, "beyond", "range", car_min, car_cost]
    for pair in full.keys() - {"SFO-SJC", "OAK-SJC"}:
        assert short[pair] == full[pair]


def test_size_fleet_refuses_demand_beyond_range(scenario_dir, tmp_path, capsys):
    write_short_range(scenario_dir)
    message = "error: demand on infeasible routes (exceeds range): [(0, 2), (1, 2), (2, 0), (2, 1)]\n"
    for argv in (["size-fleet"], ["simulate", "--out", tmp_path / "out"]):
        assert run_cli(*argv, "--config", scenario_dir / "config.json") == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == message
        assert captured.out == ""


def test_unknown_config_key_exits_2(scenario_dir):
    doc = json.loads((scenario_dir / "config.json").read_text())
    doc["not_a_key"] = 1
    (scenario_dir / "config.json").write_text(json.dumps(doc))
    assert run_cli("demand", "--config", scenario_dir / "config.json") == EXIT_CONFIG


@pytest.mark.parametrize("field, value", [("turnaround_min", 10.5), ("buffer_min", 2.5)])
def test_fractional_vehicle_minutes_exit_2(scenario_dir, tmp_path, capsys, field, value):
    # a non-integer duration would schedule transitions the minute clock
    # never reaches and silently stall the fleet
    doc = json.loads((scenario_dir / "config.json").read_text())
    doc["vehicle"][field] = value
    (scenario_dir / "config.json").write_text(json.dumps(doc))
    assert run_cli(
        "simulate", "--config", scenario_dir / "config.json", "--out", tmp_path / "out",
    ) == EXIT_CONFIG
    assert f"{field} must be an integer" in capsys.readouterr().err


def test_non_integer_placement_node_exits_2(scenario_dir, tmp_path, capsys):
    doc = json.loads((scenario_dir / "config.json").read_text())
    doc["initial_placement"] = "node:abc"
    (scenario_dir / "config.json").write_text(json.dumps(doc))
    assert run_cli(
        "simulate", "--config", scenario_dir / "config.json", "--out", tmp_path / "out",
        "--minutes", "60",
    ) == EXIT_CONFIG
    assert "not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("seed", "abc", "seed must be an integer"),
    ("reposition_enabled", "false", "reposition_enabled must be true or false"),
    ("fleet", 3.7, "fleet must be an integer"),
    ("seeds", True, "seeds must be an integer"),  # JSON true is an int to Python
])
def test_mistyped_top_level_field_exits_2(scenario_dir, tmp_path, capsys, field, value, message):
    # each was once converted instead of refused: a traceback for the seed,
    # "false" read as true, and a fleet silently truncated to 3
    doc = json.loads((scenario_dir / "config.json").read_text())
    doc[field] = value
    (scenario_dir / "config.json").write_text(json.dumps(doc))
    assert run_cli(
        "simulate", "--config", scenario_dir / "config.json", "--out", tmp_path / "out",
        "--minutes", "60",
    ) == EXIT_CONFIG
    assert message in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, value", [
    ("alpha", NAN),  # was exit 1, a traceback from robust_fleet
    ("op_hours_per_day", INF),  # was exit 0 with 0 riders
    ("pooling_q", -INF),
    pytest.param("alpha", 10**400, id="alpha-int-beyond-float-range"),
    ("compare_wait_min", NAN),
    ("vehicle.cruise_speed_mph", NAN),  # was exit 1
    ("vehicle.max_range_mi", INF),
    ("cost.car_speed_mph", NAN),  # was exit 0
    ("cost.op_cost_per_hr", INF),
    ("cost.value_of_time_per_hr", NAN),
    ("cost.car_cost_per_mi", -INF),
    ("cost.circuity", INF),
])
def test_non_finite_number_exits_2(scenario_dir, tmp_path, capsys, field, value):
    # Python's json reads NaN and Infinity; no field of the model means
    # anything by them
    doc = json.loads((scenario_dir / "config.json").read_text())
    section, _, key = field.rpartition(".")
    (doc[section] if section else doc)[key] = value
    (scenario_dir / "config.json").write_text(json.dumps(doc))
    assert run_cli(
        "simulate", "--config", scenario_dir / "config.json", "--out", tmp_path / "out",
        "--minutes", "60",
    ) == EXIT_CONFIG
    assert f"{field} must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("vehicle.altitude_band_ft", 500),  # was exit 1, a TypeError traceback
    ("vehicle.altitude_band_ft", [500.0, INF]),  # fields nothing read, now removed
    ("vehicle.optimal_leg_mi", NAN),
    ("vehicle.wingspan_ft", 40.0),
    ("vehicle.op_cost_per_hr", 605.0),  # nothing read it; cost.op_cost_per_hr prices a mission
    ("cost.fuel_cost_per_mi", 0.1),
])
def test_unknown_key_exits_2(scenario_dir, tmp_path, capsys, field, value):
    doc = json.loads((scenario_dir / "config.json").read_text())
    section, _, key = field.rpartition(".")
    (doc[section] if section else doc)[key] = value
    (scenario_dir / "config.json").write_text(json.dumps(doc))
    assert run_cli(
        "simulate", "--config", scenario_dir / "config.json", "--out", tmp_path / "out",
        "--minutes", "60",
    ) == EXIT_CONFIG
    assert f"unknown {section or 'config'} keys ['{key}']" in capsys.readouterr().err


# one hot pair at the default 30 days x 20 h: 708.389/min, then 708.417/min
# against the bound -ln(smallest normal float) = 708.3964/min
@pytest.mark.parametrize("monthly_pax, code", [(25_502_000, EXIT_OK), (25_503_000, EXIT_CONFIG)])
def test_pair_rate_beyond_sampler_range_exits_2(scenario_dir, tmp_path, capsys, monthly_pax, code):
    # past the bound e^-rate is subnormal; past ~745/min it is 0.0 and every
    # count stopped near 746, a run that ended silently wrong
    (scenario_dir / "od.csv").write_text(f"origin,dest,monthly_pax\nSFO,OAK,{monthly_pax}\n")
    assert run_cli(
        "simulate", "--config", scenario_dir / "config.json", "--out", tmp_path / "out",
        "--fleet", "4", "--minutes", "3",
    ) == code
    err = capsys.readouterr().err
    if code == EXIT_CONFIG:
        assert "pair (0, 1) has 708.4167 pax/min, beyond the Poisson sampler's range" in err
    else:
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["simulation"]["generated"] > 3 * 600


@pytest.mark.parametrize("rows, line, total", [
    (["100000000000000000000"], 2, 10**20),
    (["9223372036854775807", "9223372036854775807", "3"], 3, 2 * (2**63 - 1)),
])
def test_od_pair_total_beyond_int64_exits_2(scenario_dir, capsys, rows, line, total):
    # one row crashed with an OverflowError traceback; the three rows wrapped
    # the int64 total to 1, and demand printed 1001 passengers and exited 0
    (scenario_dir / "od.csv").write_text(
        "origin,dest,monthly_pax\n" + "".join(f"SFO,OAK,{pax}\n" for pax in rows))
    assert run_cli("demand", "--config", scenario_dir / "config.json") == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"od.csv:{line}: SFO->OAK total of {total} passengers exceeds {2**63 - 1}" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("name, line, row, message", [
    # "1,300" typed with a comma read as 1 passenger, and demand exited 0
    ("od.csv", 2, "SFO,OAK,1,300", "od.csv:2: 4 cells, but the header has 3"),
    ("nodes.csv", 3, "1,OAK,37.7213,-122.2210,x", "nodes.csv:3: 5 cells, but the header has 4"),
])
def test_row_with_more_cells_than_the_header_exits_2(scenario_dir, capsys, name, line, row, message):
    path = scenario_dir / name
    lines = path.read_text().splitlines()
    lines[line - 1] = row
    path.write_text("\n".join(lines) + "\n")
    assert run_cli("demand", "--config", scenario_dir / "config.json") == EXIT_CONFIG
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


# DictReader skips a blank line, so counting rows named the line before
@pytest.mark.parametrize("name, rows, message", [
    ("od.csv", ["SFO,OAK,1300", "", "SFO,XXX,5"], "od.csv:4: unknown destination code 'XXX'"),
    ("nodes.csv", ["0,SFO,37.6190,-122.3750", "", "1,OAK,north,-122.2210"], "nodes.csv:4: bad node row"),
], ids=["od.csv", "nodes.csv"])
def test_error_after_a_blank_line_names_its_line(scenario_dir, capsys, name, rows, message):
    path = scenario_dir / name
    path.write_text("\n".join([path.read_text().splitlines()[0], *rows]) + "\n")
    assert run_cli("demand", "--config", scenario_dir / "config.json") == EXIT_CONFIG
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


# the first four ended in a UnicodeDecodeError or _csv.Error traceback with
# exit 1; the last two were read as 3000 and exited 0
@pytest.mark.parametrize("name, data, message", [
    ("config.json", b'{"nodes": "nodes.csv", "od": "od.csv", "seed": 1\xff}', "config.json: invalid JSON"),
    ("nodes.csv", b"id,code,lat,lon\n0,SF\xff,37.6190,-122.3750\n", "nodes.csv: not UTF-8 text"),
    ("od.csv", b"origin,dest,monthly_pax\nSFO,OAK,13\xff00\n", "od.csv: not UTF-8 text"),
    ("od.csv", b"origin,dest,monthly_pax\nSFO,OAK," + b"1" * 200_000 + b"\n",
     "od.csv:2: field larger than field limit"),
    ("od.csv", b'origin,dest,monthly_pax\nSFO,OAK,1300\nSFO,SJC,"3000\n', "od.csv:3: unexpected end of data"),
    ("od.csv", b'origin,dest,monthly_pax\nSFO,OAK,1300\nSFO,SJC,"30"00\n', "od.csv:3: ',' expected after '\"'"),
], ids=["config.json-not-utf8", "nodes.csv-not-utf8", "od.csv-not-utf8", "od.csv-huge-field",
        "od.csv-quote-left-open", "od.csv-text-after-quote"])
def test_malformed_bytes_exit_2(scenario_dir, capsys, name, data, message):
    (scenario_dir / name).write_bytes(data)
    assert run_cli("demand", "--config", scenario_dir / "config.json") == EXIT_CONFIG
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["distances", "demand", "size-fleet", "simulate", "compare", "sweep"])
def test_bad_placement_rule_exits_2_from_every_command(scenario_dir, tmp_path, capsys, command):
    # distances, demand, size-fleet and compare once exited 0: only a
    # Simulation read the rule
    doc = json.loads((scenario_dir / "config.json").read_text())
    doc["initial_placement"] = "everywhere"
    (scenario_dir / "config.json").write_text(json.dumps(doc))
    argv = [command, "--config", scenario_dir / "config.json"]
    if command in ("simulate", "sweep"):
        argv += ["--out", tmp_path / "out", "--minutes", "60"]
    assert run_cli(*argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "unknown initial placement rule 'everywhere'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("field, value, message", [
    ("nodes", 5, "nodes must be a string"),  # was exit 1, a TypeError traceback
    ("od", ["od.csv"], "od must be a string"),
    ("initial_placement", 7, "initial_placement must be a string"),  # was read as "7"
    ("vehicle", None, "vehicle must be a JSON object"),
    ("vehicle", {"cruise_speed_mph": "fast"}, "vehicle.cruise_speed_mph must be a number"),
    ("cost", {"car_speed_mph": True}, "cost.car_speed_mph must be a number"),
    # was refused only by a TypeError from comparing a list with 0
    ("vehicle", {"cruise_speed_mph": [150.0]}, "vehicle.cruise_speed_mph must be a number"),
])
def test_mistyped_path_or_section_exits_2(scenario_dir, tmp_path, capsys, field, value, message):
    doc = json.loads((scenario_dir / "config.json").read_text())
    doc[field] = value
    (scenario_dir / "config.json").write_text(json.dumps(doc))
    assert run_cli(
        "simulate", "--config", scenario_dir / "config.json", "--out", tmp_path / "out",
        "--minutes", "60",
    ) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("simulate", "--alpha", "nan"),  # was exit 1, a traceback from robust_fleet
    ("compare", "--wait", "inf"),
])
def test_non_finite_flag_exits_2(scenario_dir, capsys, argv):
    assert run_cli(*argv, "--config", scenario_dir / "config.json") == EXIT_CONFIG
    assert {
        "--alpha": "alpha must be positive and finite, got nan",
        "--wait": "compare_wait_min must be nonnegative and finite, got inf",
    }[argv[1]] in capsys.readouterr().err


# every (command, flag) pair the command once accepted and ignored
IGNORED_FLAGS = [
    (command, flag)
    for command, flags in [
        ("distances", ("--out", "--seed", "--minutes", "--fleet", "--alpha", "--seeds")),
        ("demand", ("--out", "--seed", "--fleet", "--alpha", "--seeds")),
        ("size-fleet", ("--out", "--seed", "--minutes", "--fleet", "--seeds")),
        ("compare", ("--out", "--seed", "--minutes", "--fleet", "--alpha", "--seeds")),
        ("sweep", ("--fleet", "--alpha")),
    ]
    for flag in flags
]


@pytest.mark.parametrize("command, flag", IGNORED_FLAGS)
def test_command_refuses_a_flag_it_does_not_read(scenario_dir, capsys, command, flag):
    # each exited 0: `sweep --fleet 3 --alpha 100` ignored both
    with pytest.raises(SystemExit) as exit_info:
        run_cli(command, "--config", scenario_dir / "config.json", flag, "3")
    assert exit_info.value.code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"uamsim: error: unrecognized arguments: {flag} 3" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@contextlib.contextmanager
def gc_state(enabled: bool):
    """Run the body with the cyclic collector on or off; restore it after."""
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if before else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("argv, missing_config, code", [
    (("simulate", "--fleet", "2", "--minutes", "60"), False, EXIT_OK),
    (("simulate",), True, EXIT_CONFIG),
    (("sweep", "--n-max", "1", "--minutes", "600", "--seeds", "1"), False, EXIT_INFEASIBLE),
], ids=["exit-0", "exit-2", "exit-3"])
def test_main_leaves_gc_as_it_found_it(scenario_dir, tmp_path, enabled, argv, missing_config, code):
    config = tmp_path / "nope.json" if missing_config else scenario_dir / "config.json"
    with gc_state(enabled):
        assert run_cli(*argv, "--config", config, "--out", tmp_path / "out") == code
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_main_leaves_gc_as_it_found_it_when_a_command_raises(scenario_dir, monkeypatch, enabled):
    def broken(args):
        assert not gc.isenabled()  # the command runs with the collector paused
        raise RuntimeError("broken command")

    monkeypatch.setitem(cli._COMMANDS, "distances", broken)
    with gc_state(enabled):
        with pytest.raises(RuntimeError, match="broken command"):
            run_cli("distances", "--config", scenario_dir / "config.json")
        assert gc.isenabled() is enabled


def test_argparse_error_does_not_touch_gc(scenario_dir, monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "disable", lambda: calls.append("disable"))
    monkeypatch.setattr(gc, "enable", lambda: calls.append("enable"))
    with pytest.raises(SystemExit) as exit_info:
        run_cli("sweep", "--config", scenario_dir / "config.json", "--n-max", "many")
    assert exit_info.value.code == EXIT_CONFIG
    assert calls == []


@pytest.mark.parametrize("small, large", [
    (("simulate", "--fleet", "2", "--minutes", "60"), ("simulate", "--fleet", "32")),
    (("sweep", "--n-max", "2", "--seeds", "1", "--minutes", "60"),
     ("sweep", "--n-max", "12", "--seeds", "4")),
], ids=["simulate", "sweep"])
def test_command_cyclic_garbage_does_not_grow_with_the_run(scenario_dir, tmp_path, small, large):
    """A command runs with the collector paused, so its cyclic garbage must be
    a constant, not a share of the run."""

    def garbage(argv, out) -> int:
        gc.collect()
        with gc_state(False):
            code = run_cli(*argv, "--config", scenario_dir / "config.json", "--out", out)
            assert code in (EXIT_OK, EXIT_INFEASIBLE)
            return gc.collect()

    assert garbage(small, tmp_path / "small") == garbage(large, tmp_path / "large")


def write_compare_wait(scenario_dir, wait) -> None:
    doc = json.loads((scenario_dir / "config.json").read_text())
    doc["compare_wait_min"] = wait
    (scenario_dir / "config.json").write_text(json.dumps(doc))


@pytest.mark.parametrize("flag", [True, False])
def test_negative_compare_wait_exits_2(scenario_dir, capsys, flag):
    # both printed negative door-to-door times and exited 0; the flag
    # bypassed the config checks
    argv = ["compare", "--config", scenario_dir / "config.json"]
    if flag:
        argv += ["--wait", "-30"]
    else:
        write_compare_wait(scenario_dir, -30)
    assert run_cli(*argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "compare_wait_min must be nonnegative, got -30" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag", [True, False])
def test_zero_compare_wait_is_valid(scenario_dir, capsys, flag):
    argv = ["compare", "--config", scenario_dir / "config.json"]
    if flag:
        argv += ["--wait", "0"]
    else:
        write_compare_wait(scenario_dir, 0)
    assert run_cli(*argv) == EXIT_OK
    assert "(assumed wait 0" in capsys.readouterr().out


# -- any mutated scenario runs or exits 2 -------------------------------------

# every value the property may put in place of a JSON value of another type
JSON_VALUES = ("text", 7, 2.5, True, None, [1.0], {"key": 1.0})
BAD_NUMBERS = (-1, -0.5, 0, 0.0, NAN, 0.5)


def json_type(value) -> type:
    """The JSON type of a parsed value: an int is a number like a float."""
    return float if type(value) is int else type(value)


def small_baseline() -> dict:
    """The baseline scenario with small work: fleet 8 and 2 seeds, its data
    files named by absolute path."""
    doc = json.loads((BASELINE_DIR / "config.json").read_text())
    doc.update(nodes=str(BASELINE_DIR / doc["nodes"]), od=str(BASELINE_DIR / doc["od"]),
               fleet=8, seeds=2)
    return doc


@st.composite
def mutated_scenarios(draw) -> dict:
    """The small baseline with one key, top-level or in a section, dropped,
    joined by an unknown key, given a value of another JSON type, or (for a
    number) set negative, zero, NaN or fractional."""
    doc = small_baseline()
    places = [(doc, key) for key in doc]
    places += [(doc[name], key) for name in ("vehicle", "cost") for key in doc[name]]
    obj, key = draw(st.sampled_from(places))
    kinds = ["drop", "unknown", "swap"] + (["number"] if json_type(obj[key]) is float else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "drop":
        del obj[key]
    elif kind == "unknown":
        obj[key + "_extra"] = obj[key]
    elif kind == "swap":
        obj[key] = draw(st.sampled_from([v for v in JSON_VALUES if json_type(v) != json_type(obj[key])]))
    else:
        obj[key] = draw(st.sampled_from(BAD_NUMBERS))
    return doc


@settings(max_examples=400, deadline=None)
@given(doc=mutated_scenarios())
def test_mutated_scenario_runs_or_exits_2(doc):
    # an exception escaping main() is the traceback a user would see
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        config.write_text(json.dumps(doc))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = run_cli("simulate", "--config", config, "--out", out, "--minutes", "60")
        if code == EXIT_OK:
            sim = json.loads((out / "report.json").read_text())["simulation"]
            assert sim["generated"] == sim["served"] + sim["onboard_at_end"] + sim["unserved"]
        elif code == EXIT_INFEASIBLE:  # only a refined fleet can be out of bounds
            assert doc.get("fleet") is None
        else:
            assert code == EXIT_CONFIG
            assert stderr.getvalue().startswith("error: ")

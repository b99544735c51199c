"""Batch command-line front end.

Subcommands: ``distances | demand | size-fleet | simulate | compare | sweep``.
Every command loads one scenario JSON (``--config``), applies flag
overrides, and exits 0 on success, 2 on configuration or I/O problems, and
3 when a sweep finds no feasible fleet within its bounds.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from operator import countOf
from pathlib import Path

from .config import ScenarioConfig, build_world, load_scenario
from .demand import RNG_NAME, expected_arrivals
from .errors import ValidationError
from .metrics import (
    compute_metrics,
    effective_cost_car,
    effective_cost_uam,
    first_passing,
    refine_fleet,
    throughput_matrix,
    time_savings,
    write_heatmap_csv,
    write_report_json,
    write_sweep_csv,
    write_waits_csv,
)
from .sizing import size_fleet
from .simulate import SimConfig, run_simulation, write_riders_csv, write_trips_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


# every flag but --out, --n-min and --n-max overrides the ScenarioConfig
# field named by its dest
_FLAGS = {
    "--out": dict(help="output directory (default: ./out)"),
    "--seed": dict(type=int, help="base RNG seed"),
    "--minutes": dict(type=int, dest="t_sim_min", help="simulation horizon in minutes"),
    "--fleet": dict(type=int, help="fleet size override"),
    "--alpha": dict(type=float, help="sizing safety factor"),
    "--seeds": dict(type=int, help="replicate count for averaging"),
    "--wait": dict(type=float, dest="compare_wait_min", help="assumed rider wait in minutes"),
    "--n-min": dict(type=int, default=1, help="smallest fleet size (default 1)"),
    "--n-max": dict(type=int, default=40, help="largest fleet size (default 40)"),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uamsim",
        description="Air-taxi network simulator: demand, fleet sizing, dispatch, and costs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", required=True, help="scenario JSON document")
        for flag in flags:
            p.add_argument(flag, metavar=flag[2:].replace("-", "_").upper(), **_FLAGS[flag])
    return parser


_SCENARIO_FIELDS = {f.name for f in fields(ScenarioConfig)}


def _load(args) -> ScenarioConfig:
    """The scenario with every scenario flag that was given applied over it."""
    changes = {name: value for name, value in vars(args).items()
               if name in _SCENARIO_FIELDS and value is not None}
    return replace(load_scenario(args.config), **changes)


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path("out")
    out.mkdir(parents=True, exist_ok=True)
    return out


# scenario fields a run takes under the same name (fleet is passed per run)
_SHARED_FIELDS = {f.name for f in fields(SimConfig)} & _SCENARIO_FIELDS


def _sim_config(cfg: ScenarioConfig, net, rates, fleet: int) -> SimConfig:
    shared = {name: getattr(cfg, name) for name in _SHARED_FIELDS}
    return SimConfig(**{**shared, "fleet": fleet}, net=net, spec=cfg.vehicle, rates=rates,
                     t_sim=cfg.t_sim_min)


def _matrix(matrix, codes, fmt) -> str:
    cells = [[fmt(x) for x in row] for row in matrix]
    width = max(
        max(len(c) for c in codes) + 1,
        max(len(s) for row in cells for s in row) + 2,
    )
    head = " " * width + "".join(f"{c:>{width}}" for c in codes)
    return "\n".join([head, *(f"{code:<{width}}" + "".join(f"{s:>{width}}" for s in row)
                              for code, row in zip(codes, cells))])


def cmd_distances(cfg: ScenarioConfig, args) -> int:
    _, net, _, _ = build_world(cfg)
    print("\n\n".join(f"{title}:\n" + _matrix(matrix, net.codes, fmt) for title, matrix, fmt in (
        ("Great-circle distances (mi)", net.dist, "{:.3f}".format),
        ("Flight times (min)", net.air_time, "{:.3f}".format),
        ("Feasible (leg within range)", net.feasible, lambda x: "yes" if x else "no"),
    )))
    return EXIT_OK


def cmd_demand(cfg: ScenarioConfig, args) -> int:
    _, net, od, rates = build_world(cfg)
    print(f"Monthly passengers: {od.total_monthly}")
    print("Arrival rates (pax/min):")
    print(_matrix(rates.per_min, net.codes, "{:.6f}".format))
    print(f"\nTotal arrival rate: {rates.total_rate:.6f} pax/min")
    print(f"Expected arrivals over {cfg.t_sim_min} min: {expected_arrivals(rates, cfg.t_sim_min):.3f}")
    return EXIT_OK


def cmd_size_fleet(cfg: ScenarioConfig, args) -> int:
    _, net, _, rates = build_world(cfg)
    report = size_fleet(net, cfg.vehicle, rates, alpha=cfg.alpha, pooling_q=cfg.pooling_q)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_simulate(cfg: ScenarioConfig, args) -> int:
    _, net, od, rates = build_world(cfg)
    out = _out_dir(args)
    sizing = size_fleet(net, cfg.vehicle, rates, alpha=cfg.alpha, pooling_q=cfg.pooling_q)

    fleet = cfg.fleet
    refined = None
    if fleet is None:
        # no fleet pinned: run sizes upward from the analytical estimate and
        # stop at the first one that meets the wait target
        n_min = max(1, sizing.fleet)
        fleet = refined = first_passing(refine_fleet(
            _sim_config(cfg, net, rates, n_min), cfg.seeds, n_min, max(n_min * 4, n_min + 8)
        ))
        if fleet is None:
            print("no fleet size within the refinement bound meets the wait target", file=sys.stderr)
            return EXIT_INFEASIBLE
        cfg = replace(cfg, fleet=fleet)

    result = run_simulation(_sim_config(cfg, net, rates, fleet))
    report = compute_metrics(result)
    served = throughput_matrix(result)

    write_trips_csv(result, out / "trips.csv")
    write_riders_csv(result, out / "riders.csv")
    write_waits_csv(result.waits, out / "waits.csv")
    write_heatmap_csv(od.counts, net.codes, out / "heatmap_demand.csv")
    write_heatmap_csv(served, net.codes, out / "heatmap_served.csv")
    seated = result.log.seated
    reposition_trips = countOf(seated, 0)  # a reposition leg carries no riders
    write_report_json(
        {
            "config": cfg.to_dict(),
            "rng": RNG_NAME,
            "sizing": sizing.to_dict(),
            "refined_fleet": refined,
            "metrics": {**report.to_dict(), "throughput": served.tolist()},
            "simulation": {
                "generated": result.generated,
                "served": result.served,
                "onboard_at_end": result.onboard_at_end,
                "unserved": result.unserved,
                "revenue_trips": len(seated) - reposition_trips,
                "reposition_trips": reposition_trips,
            },
        },
        out / "report.json",
    )
    print(
        f"fleet {fleet}, {result.generated} riders generated, {result.served} served, "
        f"{result.unserved} still waiting; mean wait {report.mean_wait:.2f} min "
        f"(p95 {report.p95_wait:.0f}), u_air {report.u_air:.3f}, u_cycle {report.u_cycle:.3f}"
    )
    print(f"outputs written to {out}")
    return EXIT_OK


def cmd_compare(cfg: ScenarioConfig, args) -> int:
    if cfg.cost is None:
        raise ValidationError("compare needs a 'cost' section in the scenario config")
    _, net, _, _ = build_world(cfg)
    riders = max(1, round(cfg.pooling_q))
    wait = cfg.compare_wait_min
    print(
        f"{'pair':<12}{'gc mi':>8}{'air door min':>14}{'air $/rider':>13}"
        f"{'car min':>9}{'car $':>9}{'time saved':>12}"
    )
    for i in range(net.n):
        for j in range(i + 1, net.n):
            d = float(net.dist[i, j])
            car_min, car_cost = effective_cost_car(d, cfg.cost)
            pair = f"{net.codes[i]}-{net.codes[j]}"
            if not net.feasible[i, j]:
                # no air leg to price: the aircraft cannot fly this pair
                print(f"{pair:<12}{d:>8.2f}{'beyond range':>27}{car_min:>9.2f}{car_cost:>9.2f}")
                continue
            mission = cfg.vehicle.buffer_min + float(net.air_time[i, j])
            uam_door = wait + mission
            uam_cost = effective_cost_uam(mission, riders, wait, cfg.cost)
            saved = time_savings(car_min, uam_door)
            print(
                f"{pair:<12}{d:>8.2f}{uam_door:>14.2f}{uam_cost:>13.2f}"
                f"{car_min:>9.2f}{car_cost:>9.2f}{saved:>12.3f}"
            )
    print(f"(assumed wait {wait} min, {riders} riders/flight, car speed {cfg.cost.car_speed_mph} mph)")
    return EXIT_OK


def cmd_sweep(cfg: ScenarioConfig, args) -> int:
    _, net, _, rates = build_world(cfg)
    out = _out_dir(args)
    n_min, n_max = args.n_min, args.n_max
    # refine_fleet sets each run's fleet, so the template's is any valid one
    rows = list(refine_fleet(_sim_config(cfg, net, rates, 1), cfg.seeds, n_min, n_max))
    write_sweep_csv(rows, out / "sweep.csv")
    print(f"{'fleet':>6}{'mean wait':>11}{'p95':>7}{'served':>9}{'u_air':>8}{'u_cycle':>9}{'wait ok':>9}")
    for row in rows:
        print(
            f"{row.fleet:>6}{row.mean_wait:>11.2f}{row.p95_wait:>7.1f}{row.served:>9.1f}"
            f"{row.u_air:>8.3f}{row.u_cycle:>9.3f}{'yes' if row.wait_ok else 'no':>9}"
        )
    print(f"sweep table written to {out / 'sweep.csv'}")
    fleet = first_passing(rows)
    if fleet is None:
        print(f"infeasible within bound: no fleet in [{n_min}, {n_max}] meets the wait target", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(f"smallest fleet meeting the wait target: {fleet}")
    return EXIT_OK


# each command: its handler, its help and the flags it reads besides --config
_COMMANDS = {
    "distances": (cmd_distances, "print distance/air-time/feasibility matrices", ()),
    "demand": (cmd_demand, "print arrival-rate matrix and expected arrivals", ("--minutes",)),
    "size-fleet": (cmd_size_fleet, "print the analytical sizing report as JSON", ("--alpha",)),
    "simulate": (cmd_simulate, "run one simulation and write report/log files",
                 ("--out", "--seed", "--minutes", "--fleet", "--alpha", "--seeds")),
    "compare": (cmd_compare, "door-to-door cost/time table vs driving", ("--wait",)),
    "sweep": (cmd_sweep, "sweep fleet sizes and pick the smallest passing one",
              ("--out", "--seed", "--minutes", "--seeds", "--n-min", "--n-max")),
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](_load(args), args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

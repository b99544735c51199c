"""Golden digests: fixed runs whose outputs must stay byte-identical.

Each case hashes ``json.dumps(SimResult.to_dict(), sort_keys=True)`` with
sha256; the CLI cases hash every file one ``simulate`` or ``sweep`` run
writes, two of them through ``refine_fleet``, and the stdout cases hash
what the printing commands show on the shipped scenario.  A digest may change only in
a change whose CHANGES.md entry says why.
"""

from __future__ import annotations

import hashlib
import json
import shutil

import pytest

from uamsim import SimConfig, run_simulation
from uamsim.cli import EXIT_OK, main

from conftest import BASELINE_DIR, backlog_config

BASELINE_DIGESTS = {
    "fleet1": "c68856ab3535b5a75c3ec39ae91de3d99ec45ddcb42a59a7325e680fc6ce62bc",
    "fleet4": "2d4c26bbee7a41b7c9c8e89b0a4124a115aec4458a97f1b89498e03a82f1d2b4",
    "fleet32": "46094aa211e0e54f9b9899a7964d823e586b347af9ffd2178ba4edfb3675c485",
    "no_reposition": "a98be4cc3f24bd545c0f5b179d2214e889f058aa38ff2b199c0eb8e52f5f166c",
    "no_charge_after_reposition": "2b898ade12b864f28dc2ea9e2331e17e0edf7bdb63b7ff47d49d45dbbd5522ce",
    "node_placement": "3ff6c27b67e44c86320edf269a96a3e6c7ceed611dd731a40cb9be576e859272",
}
BACKLOG_DIGEST = "123e6d874d10c54adc83153b0f4a691b083caed8ca1f3d14eafd203314d8b804"
CLI_DIGESTS = {
    "heatmap_demand.csv": "46e1b67bb8592a52417fef570c1b3595873542168500c10d556fcfd8feb65877",
    "heatmap_served.csv": "ef18f951a5c9fcba51d5b6a82572b2b7a9fc623d4521ea6047c8e71b0611a8c6",
    "report.json": "d1d061ff6ab78405ce56ced66ceee02515a3d25abada5e405575b2acce14df54",
    "riders.csv": "a1b23fb4c92156b890e1202f900a0bc10a95b055d36178b2add4de33c0a43afb",
    "trips.csv": "703ed483b85eaec7e208cec5da831d082d3644d10f58f226e5c0a56e34041f35",
    "waits.csv": "6fb145e08a8f1637c136f9abc485d1b719d6834065d6b611a79a0c194a7bebfc",
}
# `simulate` with `fleet: null`: refine_fleet picks the fleet (16 here)
REFINED_CLI_DIGESTS = {
    "heatmap_demand.csv": "46e1b67bb8592a52417fef570c1b3595873542168500c10d556fcfd8feb65877",
    "heatmap_served.csv": "8a5781cf71d016097864359604f178f239f0e43b4d9bbc3eb953814332b939a2",
    "report.json": "1726b1a73ffd962883c298a0a1fab6b4f22c337f7573cf698a9ac53fa77a3418",
    "riders.csv": "da7e94575748743a57f76c4fc1bfe494f447f9221ea6974efc13a19ac45cf85c",
    "trips.csv": "bb5c92e0a953a4004b1b3b28ae6ceab48b16aab021f64399003843debe0a8e92",
    "waits.csv": "925465c05b800a2156e0c0f689b378966de1a26ee213f1722a82174991b93c5e",
}
SWEEP_CLI_DIGESTS = {
    "sweep.csv": "14a5d5fd34b6abdf59e85345084f40ce329bf9fc9e2d0a1037e8f8668be83295",
}
# stdout of the commands that only print, keyed by their arguments
STDOUT_DIGESTS = {
    "distances": "3bf577c2fb0338e0264a3e7a893b63d2d487c460d3c069206a792de2a67390e0",
    "demand": "ecfb230bc2cc268fee195f710521d311e25faae844da4ccc6c5b2e93af27e5a7",
    "size-fleet": "1dfe78f92bbb73d0d56231127fd4ccb45cc360f20efe422a85f18bf6c088d692",
    "compare": "e8bddefd9cf91c4a191eb1d73967365264ee2e5c813df9ce1817b7d36c048c58",
    "compare --wait 3": "00fe01c7aa3ee889308550e4b683f1c5d03d3292dae757d21dbcf62e8cb1651d",
}

BASELINE_CASES = {
    "fleet1": dict(fleet=1),
    "fleet4": dict(fleet=4),
    "fleet32": dict(fleet=32),
    "no_reposition": dict(fleet=8, reposition_enabled=False),
    "no_charge_after_reposition": dict(fleet=8, charge_after_reposition=False),
    "node_placement": dict(fleet=8, initial_placement="node:2"),
}


def result_digest(result) -> str:
    text = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(BASELINE_CASES))
def test_baseline_digest(case, baseline_scenario, baseline_world):
    _, net, _, rates = baseline_world
    cfg = SimConfig(net=net, spec=baseline_scenario.vehicle, rates=rates,
                    t_sim=1200, seed=0, **BASELINE_CASES[case])
    assert result_digest(run_simulation(cfg)) == BASELINE_DIGESTS[case]


def test_backlog_digest():
    result = run_simulation(backlog_config(seed=11, fleet=100, t_sim=150))
    assert result.unserved > 1000  # riders still waiting when the day ends
    assert result_digest(result) == BACKLOG_DIGEST


def run_in_copy(tmp_path, monkeypatch, argv, **config_changes) -> dict[str, str]:
    """Run the CLI on a copy of the baseline scenario; sha256 of each output.

    It runs from tmp_path with a relative config path, so the config echo in
    report.json does not depend on where the checkout lives.
    """
    shutil.copytree(BASELINE_DIR, tmp_path / "scenario")
    config = tmp_path / "scenario" / "config.json"
    config.write_text(json.dumps({**json.loads(config.read_text()), **config_changes}))
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--config", "scenario/config.json", "--out", "out"]) == EXIT_OK
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((tmp_path / "out").iterdir())}


def test_simulate_cli_files(tmp_path, monkeypatch):
    argv = ["simulate", "--fleet", "8", "--seed", "3", "--minutes", "600"]
    assert run_in_copy(tmp_path, monkeypatch, argv) == CLI_DIGESTS


def test_simulate_refined_fleet_cli_files(tmp_path, monkeypatch):
    argv = ["simulate", "--seed", "5", "--minutes", "300"]
    assert run_in_copy(tmp_path, monkeypatch, argv, fleet=None, seeds=2) == REFINED_CLI_DIGESTS


def test_sweep_cli_files(tmp_path, monkeypatch):
    argv = ["sweep", "--n-min", "1", "--n-max", "16", "--seeds", "3", "--minutes", "300"]
    assert run_in_copy(tmp_path, monkeypatch, argv) == SWEEP_CLI_DIGESTS


@pytest.mark.parametrize("args", sorted(STDOUT_DIGESTS))
def test_command_stdout(args, capsys):
    assert main([*args.split(), "--config", str(BASELINE_DIR / "config.json")]) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == STDOUT_DIGESTS[args]

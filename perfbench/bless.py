"""Rewrite ``reference.json``: the digests that ops' outputs are compared with.

Usage, from the root of a checkout: ``python3 perfbench/bless.py FIRST LAST``
records the outputs of one op per workload for every seed in FIRST..LAST.
The report keys digested are those the ``metrics`` and ``simulation``
sections of ``report.json`` have when this runs.  Bless only code whose
outputs are meant to change, and say why where the change is recorded.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from checks import REFERENCE_PATH
from run import OUTPUT_DIR
from workloads import WORKLOADS, scenario_config

HERE = Path(__file__).resolve().parent


def report_keys(scratch: Path) -> dict[str, list[str]]:
    sys.path.insert(0, "src")
    from uamsim import cli

    config = scenario_config(WORKLOADS["stress_served"], 0, scratch)
    out = scratch / "keys"
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(["simulate", "--config", str(config), "--minutes", "10",
                         "--fleet", "30", "--out", str(out)])
    if code != 0:
        raise SystemExit("simulate failed")
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    return {section: sorted(report[section]) for section in ("metrics", "simulation")}


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    OUTPUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="bless-", dir=OUTPUT_DIR)).resolve()
    try:
        reference = {"report_keys": report_keys(scratch), "digests": {}}
        REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
        for name, workload in WORKLOADS.items():
            for seed in range(first, last + 1):
                config = scenario_config(workload, seed, scratch)
                proc = subprocess.run(
                    [sys.executable, str(HERE / "worker.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", "0", "--trace", "0",
                     "--config", str(config), "--scratch", str(scratch)],
                    capture_output=True, text=True, check=True)
                summary = json.loads(proc.stdout.strip().splitlines()[-1])
                errors = summary["ops"][0]["errors"]
                if errors:
                    raise SystemExit(f"{name} seed {seed}: {errors}")
                reference["digests"].setdefault(name, {})[str(seed)] = summary["digests"]
                print(f"{name} seed {seed}: ok", flush=True)
        REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the correctness pins for the current ENGINE_VERSION.

    python3 perfbench/pin.py

Run from the root of a checkout.  Simulates every ``engine_paper`` case
and regenerates ``faults_quick.json`` at the default seed, runs the
pin-free checks on both, and writes their digests to
``perfbench/pins.json`` under the current ``ENGINE_VERSION``.  Pins that
already exist for this version are never changed: a change to simulated
results needs an ENGINE_VERSION bump, after which this script records a
fresh set beside the old ones.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path


def main() -> int:
    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(Path(__file__).resolve().parents[1])]
    from perfbench import engine_paper, figure_quick, oracle
    from perfbench.common import DEFAULT_SEED, Run, child_env, python, run_timed
    from repro.simulator.engine import ENGINE_VERSION

    values: dict[str, str] = {}
    for case in engine_paper.build_inputs(DEFAULT_SEED):
        out = engine_paper.run_case(case)
        problems = oracle.engine_checks(out["sim"], out["payload"])
        if problems:
            print(f"{case['name']}: {problems}", file=sys.stderr)
            return 1
        values[f"engine_paper/{case['name']}"] = oracle.digest(out["payload"])

    run = Run(root, "pin", DEFAULT_SEED, 0, False)
    out_dir = run.tmpdir("out")
    try:
        res = run_timed(
            figure_quick.command(python(), DEFAULT_SEED, run.tmpdir("store"),
                                 out_dir),
            cwd=root, env=child_env(root, run.tmpdir("child-tmp")),
            timeout=figure_quick.TIMEOUT_S,
        )
        path = out_dir / figure_quick.OUTPUT
        data = path.read_bytes() if path.exists() else b""
    finally:
        shutil.rmtree(run.out_dir, ignore_errors=True)
    problems = figure_quick.payload_problems(data)
    if res["returncode"] != 0 or problems:
        print(f"figure: exit {res['returncode']} {problems}", file=sys.stderr)
        return 1
    values[f"figure_quick/{figure_quick.OUTPUT}"] = oracle.digest_bytes(data)

    existing = oracle.load_pins().get(str(ENGINE_VERSION), {}).get(
        str(DEFAULT_SEED), {}
    )
    changed = sorted(k for k, v in values.items() if existing.get(k, v) != v)
    if changed:
        print(f"pins for ENGINE_VERSION {ENGINE_VERSION} differ for "
              f"{changed}: simulated results changed without a version bump",
              file=sys.stderr)
        return 1
    oracle.record_pins(oracle.PINS_PATH, ENGINE_VERSION, DEFAULT_SEED, values)
    print(f"pinned {len(values)} digests for ENGINE_VERSION {ENGINE_VERSION}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

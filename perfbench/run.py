"""Run one workload of the repository benchmark and print its result line.

    python3 perfbench/run.py --workload engine_paper --seed 2007 \\
        --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` runs the traced twin and reports
the per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the full record
(host, sample counts, failures, pins) and any spans go to
``.perfbench/<run id>/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

WORKLOADS = ("engine_paper", "figure_quick", "serve_http")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no repro sources (src/repro); run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    bench_dir = Path(__file__).resolve().parent
    sys.path[:0] = [str(root / "src"), str(bench_dir.parent)]

    from perfbench.common import Run

    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    if args.workload == "engine_paper":
        from perfbench.engine_paper import main as workload
    elif args.workload == "figure_quick":
        from perfbench.figure_quick import main as workload
    else:
        from perfbench.serve_http import main as workload
    try:
        workload(run)
    finally:
        shutil.rmtree(run.out_dir / "tmp", ignore_errors=True)
    run.write_record()
    for failure in run.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    unpinned = [k for k, v in run.notes.get("pins", {}).items()
                if v == "unpinned"]
    if unpinned:
        print(f"note: no pins for this ENGINE_VERSION; unpinned: {unpinned}",
              file=sys.stderr)
    summary = run.summary()
    problems = manifest_problems(root, run.trace, summary["metrics"])
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


def manifest_problems(root: Path, trace: bool, metrics: dict) -> list[str]:
    """How *metrics* differ from the names and units BENCHMARK.json lists.

    Every workload must report every end-to-end metric (``--trace 0``)
    or every per-layer metric (``--trace 1``), and nothing else.
    """
    manifest = json.loads((root / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}
    problems = [f"metric {name} missing" for name in want
                if name not in metrics]
    problems += [f"metric {name} is not in BENCHMARK.json" for name in metrics
                 if name not in want]
    problems += [f"metric {name} in {metrics[name]['unit']}, not {unit}"
                 for name, unit in want.items()
                 if name in metrics and metrics[name]["unit"] != unit]
    return problems


if __name__ == "__main__":
    raise SystemExit(main())

"""The traced twin of the ``figure_quick`` command.

    python3 perfbench/figure_trace.py SPANS_DIR RUN_ID -- fig4 --profile ...

Runs ``repro.experiments.cli.main`` with the arguments after ``--`` in
this fresh interpreter, with spans around the public functions of each
layer it crosses.  The program's source is not touched: the wrappers
are installed from here, and the pool workers, forked from this
process, inherit them.  Each worker writes its spans when a job ends;
this process writes its own before exiting.
"""

from __future__ import annotations

import sys
from pathlib import Path


def install(tracer) -> None:
    import repro.core.evaluator as evaluator
    import repro.experiments.cli as cli
    import repro.experiments.parallel as parallel
    import repro.store.backend as backend
    import repro.store.cache as cache
    from perfbench import engine_probe

    def note_hit(span, result) -> None:
        span["attrs"] = {"hit": result is not None}

    tracer.wrap(cli, "run_fault_study", "experiments.run_fault_study")
    tracer.wrap(cli, "print_fig4", "experiments.render")
    tracer.wrap(parallel, "parallel_map", "experiments.pool")
    tracer.wrap_job(parallel, "_fault_worker", "experiments.job")
    tracer.wrap(evaluator.Evaluator, "fault_case", "core.evaluator.fault_case")
    tracer.wrap(evaluator.Evaluator, "run_case", "core.evaluator.run_case")
    tracer.wrap(evaluator, "generate_block_fault_pattern", "faults.generate")
    tracer.wrap(evaluator, "aggregate", "metrics.aggregate")
    tracer.wrap(cache, "run_key", "store.run_key")
    tracer.wrap(cache, "result_to_dict", "util.serialization.result_to_dict")
    tracer.wrap(cache, "result_from_dict",
                "util.serialization.result_from_dict")
    tracer.wrap(backend.ResultStore, "get", "store.get", after=note_hit)
    tracer.wrap(backend.ResultStore, "put", "store.put")
    engine_probe.install(tracer)


def main() -> int:
    spans_dir, run_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: figure_trace.py SPANS_DIR RUN_ID -- ARGS...")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from perfbench.tracing import Tracer

    tracer = Tracer(run_id, Path(spans_dir))
    try:
        with tracer.span("experiments.process"):
            with tracer.span("experiments.import"):
                import repro.experiments.cli as cli
            install(tracer)
            code = cli.main(argv)
    finally:
        tracer.restore()
        tracer.flush()
    return code


if __name__ == "__main__":
    raise SystemExit(main())

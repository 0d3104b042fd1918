"""The engine's per-layer metrics, taken wherever a workload simulates.

Every workload runs ``Simulation``: ``engine_paper`` directly, the
``figure_quick`` pool workers through the evaluator, and ``serve_http``
when it builds its campaign.  :func:`install` wraps the class from the
benchmark's side (the program is not edited) so that every simulation
records, in span attributes:

* ``simulator.construct`` around ``Simulation.__init__``, with
  ``routing.prepare`` and a call counter on ``candidate_tiers`` hooked
  onto the algorithm instance before the engine binds it;
* ``simulator.run`` around ``Simulation.run``, with a fresh
  ``PhaseProfiler`` attached (bit-identical by the engine's contract)
  and the run's simulated cycles, delivered flits, phase seconds and
  ``candidate_tiers`` calls and seconds.

:func:`report` turns those spans into the same per-layer metrics for
every workload, so a result line always holds every name the manifest
lists.
"""

from __future__ import annotations

import functools

#: The profiler phases reported.  ``collect_vc`` is left out: it runs
#: only when a simulation collects VC statistics, which no workload's
#: does, so its share would read 0 on every run.
PHASES = ("generate", "inject", "route", "switch_traverse", "watchdog")
CANDIDATES = "routing.candidate_tiers"


def install(tracer) -> None:
    """Wrap ``Simulation`` construction and runs; ``tracer.restore`` undoes."""
    from repro.obs.profile import PhaseProfiler
    from repro.simulator.engine import Simulation

    init, run = Simulation.__init__, Simulation.run
    cell = tracer.counters.setdefault(CANDIDATES, [0, 0.0])

    @functools.wraps(init)
    def traced_init(self, config, algorithm, *args, **kwargs):
        # An algorithm instance reused across simulations is hooked once.
        if "candidate_tiers" not in vars(algorithm):
            tracer.wrap(algorithm, "prepare", "routing.prepare")
            tracer.count(algorithm, "candidate_tiers", CANDIDATES)
        with tracer.span("simulator.construct"):
            init(self, config, algorithm, *args, **kwargs)

    @functools.wraps(run)
    def traced_run(self, *args, **kwargs):
        profiler = PhaseProfiler()
        self.attach_profiler(profiler)
        calls, seconds = cell
        with tracer.span("simulator.run") as span:
            result = run(self, *args, **kwargs)
        phases = profiler.report()["phases"]
        span["attrs"] = {
            "cycles": self.cycle,
            "flits": self.total_delivered * self.config.message_length,
            "phases": {p: v["seconds"] for p, v in phases.items()},
            "candidate_calls": cell[0] - calls,
            "candidate_s": cell[1] - seconds,
        }
        return result

    tracer._install(Simulation, "__init__", init, traced_init)
    tracer._install(Simulation, "run", run, traced_run)


def report(run, spans: list[dict], stage_wall_s: float) -> None:
    """Record the engine per-layer metrics from *spans* into *run*.

    *stage_wall_s* is the wall time of the stage that simulates, times
    the worker slots it had; ``simulator.busy_share`` is the share of it
    spent inside ``Simulation.run``.
    """
    from perfbench.tracing import counts, total_times

    runs = [s for s in spans if s["name"] == "simulator.run"]
    if not runs:
        raise RuntimeError("the traced work ran no simulation")
    totals = total_times(spans)
    n = counts(spans)
    run_s = totals["simulator.run"]
    phase_s = {p: sum(s["attrs"]["phases"][p] for s in runs)
               for p in runs[0]["attrs"]["phases"]}
    profiled = sum(phase_s.values())
    cand_calls = sum(s["attrs"]["candidate_calls"] for s in runs)
    cand_s = sum(s["attrs"]["candidate_s"] for s in runs)
    m = run.metric
    m("simulator.construct_s", totals["simulator.construct"], "s",
      samples=n["simulator.construct"])
    m("routing.prepare_s", totals["routing.prepare"], "s",
      samples=n["routing.prepare"])
    m("simulator.run_s", run_s, "s", samples=len(runs))
    m("simulator.cycles_per_s",
      sum(s["attrs"]["cycles"] for s in runs) / run_s, "1/s",
      samples=len(runs))
    for phase in PHASES:
        m(f"simulator.phase_share.{phase}", phase_s[phase] / profiled,
          "ratio")
    m("routing.candidate_tiers_calls", cand_calls, "count")
    m("routing.candidate_tiers_s", cand_s, "s")
    m("routing.candidate_share_of_route", cand_s / phase_s["route"], "ratio")
    m("simulator.delivered_flits", sum(s["attrs"]["flits"] for s in runs),
      "count")
    m("simulator.busy_share", run_s / stage_wall_s, "ratio")

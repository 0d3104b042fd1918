"""The cycle-driven flit-level simulation engine.

Router model (DESIGN.md §3.1): per cycle, every router performs

1. **routing + VC allocation** — header flits at buffer heads ask the
   routing algorithm for candidate output VCs (in tiers) and grab a free
   one, chosen uniformly at random among the free candidates; contention
   between headers is randomized by shuffling the service order,
2. **switch allocation** — allocated input VCs with a flit and a credit
   bid for the crossbar; at most one flit per input port and one per
   output port per cycle, winners picked in random order,
3. **traversal** — winning flits move to the downstream buffer (arriving
   next cycle), credits flow back, tail flits release channels.

``run`` and ``step`` share one loop body, which visits only busy
virtual channels, so cost scales with traffic (DESIGN.md §3.1 has the
hot-loop layout).  All randomness is seeded from ``SimConfig.seed``: a
``random.Random`` for choices plus a NumPy generator whose in-place
``shuffle`` (the same draws as ``permutation(n)``) orders bidders and
headers; busy sets are insertion-ordered dicts, so runs are exactly
reproducible.

A blocked header is retried only once its router has freed an output
VC.  Each router counts its releases; a failed attempt stores that
count, and while it has not moved the route phase skips the header's
``candidate_tiers`` call and tier scan, keeping only the blocked-cycle
bookkeeping and replaying the attempt's ``class_caps`` count.  The skip
changes no result, because of three facts:

* grants only take output VCs;
* releases happen only in ``_retire_front``, which bumps the count;
* a retry's candidate set is a subset of the first attempt's, and it
  leaves the message's routing state and the ``class_caps`` count as
  the first attempt did (``test_retry_never_widens_candidates``).

So a skipped header could not have been granted, and it draws no RNG
(every waiting header is still shuffled).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from typing import TYPE_CHECKING

from repro.faults.pattern import FaultPattern
from repro.simulator.config import SimConfig
from repro.simulator.deadlock import DeadlockError
from repro.simulator.message import BODY, HEAD, TAIL, Message
from repro.topology.directions import LOCAL, OPPOSITE
from repro.topology.mesh import Mesh2D
from repro.traffic.patterns import TrafficPattern, UniformTraffic
from repro.traffic.process import ExponentialArrivals

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.routing.base import RoutingAlgorithm

_WATCHDOG_INTERVAL = 128

#: Minimum number of complete post-warmup windows before a
#: ``cycles_mode="auto"`` run may stop: the batch-means CI needs enough
#: batches for the t-quantile to be meaningful, and stopping on fewer
#: would make the early-stop decision noise-driven.
_MIN_AUTO_BATCHES = 10

#: Behavioral version of the simulation engine.  Bump this on ANY change
#: that can alter the statistics a run produces (router pipeline, RNG
#: draws, watchdog policy, metric accounting...).  :mod:`repro.store`
#: folds it into every run key, so cached results from an older engine
#: self-invalidate instead of silently serving stale numbers.
ENGINE_VERSION = 2

#: Phase indices the per-cycle loop reports to an attached profiler.
#: ``repro.obs.profile.PHASE_NAMES`` is ordered to match (pinned by a
#: unit test); keeping bare ints here means the engine never imports
#: the observability layer.
(_PH_GENERATE, _PH_INJECT, _PH_ROUTE, _PH_SWITCH,
 _PH_WATCHDOG, _PH_COLLECT_VC) = range(6)


class InputVC:
    """One virtual channel on the input side of a router port."""

    __slots__ = ("node", "port", "vc", "pid", "buffer", "msg", "out_ovc",
                 "up_ovc", "blocked_since")

    def __init__(self, node: int, port: int, vc: int, pid: int) -> None:
        self.node = node
        self.port = port
        self.vc = vc
        self.pid = pid  # router port id ``node*5 + port`` (switch allocation)
        self.buffer: deque = deque()
        self.msg: Message | None = None  # message whose flit is at the front
        self.out_ovc: OutputVC | None = None  # allocated output VC
        self.up_ovc: OutputVC | None = None  # upstream output VC feeding us
        self.blocked_since = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InputVC(node={self.node}, port={self.port}, vc={self.vc})"


class OutputVC:
    """One virtual channel on the output side of a router port."""

    __slots__ = ("node", "port", "vc", "pid", "credits", "owner", "down_invc",
                 "is_ejection")

    def __init__(self, node: int, port: int, vc: int, pid: int,
                 credits: int, is_ejection: bool) -> None:
        self.node = node
        self.port = port
        self.vc = vc
        self.pid = pid  # router port id ``node*5 + port`` (switch allocation)
        self.credits = credits
        self.owner: InputVC | None = None
        self.down_invc: InputVC | None = None
        self.is_ejection = is_ejection

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OutputVC(node={self.node}, port={self.port}, vc={self.vc})"


class _Stream:
    """A message being fed from a PE into an injection VC."""

    __slots__ = ("invc", "msg", "sent")

    def __init__(self, invc: InputVC, msg: Message) -> None:
        self.invc = invc
        self.msg = msg
        self.sent = 0


@dataclass
class SimulationResult:
    """Statistics from one run's measurement window (post-warmup).

    ``measured_cycles`` is ``cycles - warmup`` for fixed-length runs; a
    ``cycles_mode="auto"`` run that stopped early records the cycles it
    actually measured, so the rate metrics (:attr:`throughput`,
    :attr:`message_rate`) stay correctly normalized.

    ``class_caps`` is the algorithm's whole-run
    :attr:`~repro.routing.base.RoutingAlgorithm.class_caps`: routing
    attempts whose hop class saturated at the top class, counted once
    per cycle a blocked header waits, not once per capped hop.
    """

    algorithm: str
    config: SimConfig
    n_faulty: int
    n_healthy: int
    measured_cycles: int
    generated: int = 0
    delivered: int = 0
    delivered_flits: int = 0
    dropped_deadlock: int = 0
    dropped_livelock: int = 0
    deadlock_suspects: int = 0
    latency_sum: int = 0
    latency_sq_sum: int = 0
    latency_max: int = 0
    network_latency_sum: int = 0
    hops_sum: int = 0
    class_caps: int = 0
    vc_busy: list[int] = field(default_factory=list)
    node_load: list[int] = field(default_factory=list)
    latency_samples: list[int] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def avg_latency(self) -> float:
        """Mean generation-to-delivery latency in cycles."""
        return self.latency_sum / self.delivered if self.delivered else float("nan")

    @property
    def avg_network_latency(self) -> float:
        """Mean injection-to-delivery latency in cycles."""
        return (
            self.network_latency_sum / self.delivered
            if self.delivered
            else float("nan")
        )

    @property
    def latency_std(self) -> float:
        if self.delivered < 2:
            return float("nan")
        mean = self.avg_latency
        var = self.latency_sq_sum / self.delivered - mean * mean
        return max(var, 0.0) ** 0.5

    @property
    def avg_hops(self) -> float:
        return self.hops_sum / self.delivered if self.delivered else float("nan")

    @property
    def throughput(self) -> float:
        """Normalized accepted throughput: flits/node/cycle in [0, 1].

        This is the paper's scale (peak values like 0.389 for NHop): the
        injection/ejection links move at most one flit per node per cycle,
        so 1.0 is the per-node capacity.
        """
        denom = self.n_healthy * self.measured_cycles
        return self.delivered_flits / denom if denom else float("nan")

    @property
    def message_rate(self) -> float:
        """Delivered messages per node per cycle."""
        denom = self.n_healthy * self.measured_cycles
        return self.delivered / denom if denom else float("nan")

    @property
    def offered_load(self) -> float:
        """Offered traffic in flits/node/cycle (rate x message length)."""
        return self.config.injection_rate * self.config.message_length


class Simulation:
    """One simulation run binding a config, algorithm and fault pattern.

    ``telemetry`` optionally attaches a
    :class:`repro.obs.TelemetryRegistry`; the engine then publishes
    cycle-stamped counters (injections, flit hops, blocked-header cycles,
    per-role VC occupancy, f-ring traversals, watchdog drains — see
    ``docs/observability.md``).  With ``telemetry=None`` (the default)
    every publish site reduces to a single attribute check, so the hot
    path is unchanged.
    """

    __slots__ = (
        "config", "mesh", "faults", "algorithm", "pattern",
        "rng", "_perm_rng", "cycle", "_msg_counter", "_hop_cap",
        "_timeout", "_healthy", "_arrivals", "_queues", "_streams",
        "_inj_pending", "_needs_routing", "_releases", "_active",
        "total_generated", "total_delivered", "total_dropped",
        "_auto", "_win", "_win_lat_sum", "_win_lat_cnt",
        "tracer", "telemetry", "profiler", "result",
        "_invcs", "_ovcs", "_n_ports", "_role_of", "_ring_role",
        "_t_generated", "_t_injected", "_t_delivered", "_t_flit_hops",
        "_t_ejected", "_t_blocked", "_t_drain_deadlock",
        "_t_drain_livelock", "_t_alloc_role", "_t_busy_role",
        "_t_latency", "_g_inflight", "_t_node_hops", "_t_node_blocked",
        "_s_ejected", "_s_delivered", "_s_latency", "_s_blocked",
        "_s_busy_role", "_t_fring",
        "blame", "_b_blocked", "_b_grant", "_b_ring", "_b_finalize",
        "_b_drop", "_b_role_of", "_b_ring_role",
    )

    def __init__(
        self,
        config: SimConfig,
        algorithm: RoutingAlgorithm,
        faults: FaultPattern | None = None,
        pattern: TrafficPattern | None = None,
        telemetry=None,
    ) -> None:
        self.config = config
        self.mesh = Mesh2D(config.width, config.height)
        self.faults = (
            faults if faults is not None else FaultPattern.fault_free(self.mesh)
        )
        if self.faults.mesh != self.mesh:
            raise ValueError("fault pattern mesh does not match config mesh")
        self.algorithm = algorithm
        algorithm.prepare(self.mesh, self.faults, config.vcs_per_channel)
        self.pattern = pattern if pattern is not None else UniformTraffic()
        self.pattern.prepare(self.mesh, self.faults)

        self.rng = random.Random(config.seed)
        # Dedicated fast generator for the per-cycle service-order
        # permutations (the hottest RNG call at saturation); seeded from
        # the run seed so runs stay exactly reproducible.
        self._perm_rng = np.random.default_rng(config.seed ^ 0x5EED)
        self.cycle = 0
        self._msg_counter = 0
        self._hop_cap = config.max_hops_factor * self.mesh.diameter
        self._timeout = (
            config.deadlock_timeout
            if config.deadlock_timeout is not None
            else max(1000, 25 * config.message_length)
        )

        self._build_fabric()

        healthy = self.faults.healthy_nodes
        self._healthy = healthy
        self._arrivals = ExponentialArrivals(
            healthy, config.injection_rate, self.rng
        )
        self._queues: list[deque[Message]] = [deque() for _ in self.mesh.nodes()]
        self._streams: list[list[_Stream]] = [[] for _ in self.mesh.nodes()]
        self._inj_pending: dict[int, None] = {}

        # Busy-set dicts (ordered -> reproducible iteration).  A waiting
        # header maps to None until an attempt fails, then to
        # ``(releases count at that attempt, class_caps delta)``.
        self._needs_routing: dict[InputVC, tuple[int, int] | None] = {}
        # Output-VC releases per router (see _route's wake-up rule).
        self._releases = [0] * self.mesh.n_nodes
        self._active: dict[InputVC, None] = {}

        # Conservation counters (whole run, not just measurement window).
        self.total_generated = 0
        self.total_delivered = 0
        self.total_dropped = 0

        # Early-stop state (cycles_mode="auto").  The per-window latency
        # accumulators are engine-internal — deliberately independent of
        # the telemetry registry — so the stop decision (and therefore
        # the RNG stream and every statistic) is identical whether or
        # not telemetry is attached.
        self._auto = config.cycles_mode == "auto"
        self._win = config.resolved_window
        self._win_lat_sum: list[int] = []
        self._win_lat_cnt: list[int] = []

        #: Optional event recorder (see :mod:`repro.simulator.trace`).
        self.tracer = None

        #: Optional telemetry registry (see :mod:`repro.obs.telemetry`).
        #: ``None`` keeps every publish site a no-op attribute check.
        self.telemetry = None
        if telemetry is not None:
            self.attach_telemetry(telemetry)

        #: Optional phase profiler (see :mod:`repro.obs.profile`).
        #: ``None`` keeps the per-cycle loop hook-free: one ``is not
        #: None`` check per phase, no clock reads (REP006).
        self.profiler = None

        #: Optional latency-blame recorder (see :mod:`repro.obs.blame`).
        #: ``None`` keeps every publish site a no-op attribute check,
        #: like telemetry.
        self.blame = None

        self.result = SimulationResult(
            algorithm=algorithm.name,
            config=config,
            n_faulty=self.faults.n_faulty,
            n_healthy=len(healthy),
            measured_cycles=max(config.cycles - config.warmup, 0),
            vc_busy=[0] * config.vcs_per_channel,
            node_load=[0] * self.mesh.n_nodes,
        )

    # ------------------------------------------------------------------
    # Fabric construction
    # ------------------------------------------------------------------
    def _build_fabric(self) -> None:
        cfg = self.config
        mesh = self.mesh
        V = cfg.vcs_per_channel
        depth = cfg.buffer_depth
        self._n_ports = 5 * mesh.n_nodes
        # One port-id int per port, shared by its V virtual channels.
        self._invcs = [
            [[InputVC(n, p, v, pid) for v in range(V)]
             for p, pid in enumerate(range(5 * n, 5 * n + 5))]
            for n in mesh.nodes()
        ]
        self._ovcs = [
            [
                [OutputVC(n, p, v, pid, depth, p == LOCAL) for v in range(V)]
                for p, pid in enumerate(range(5 * n, 5 * n + 5))
            ]
            for n in mesh.nodes()
        ]
        for node, direction, dst in mesh.channels():
            in_port = OPPOSITE[direction]
            for v in range(V):
                ovc = self._ovcs[node][direction][v]
                invc = self._invcs[dst][in_port][v]
                ovc.down_invc = invc
                invc.up_ovc = ovc

    def output_vc(self, node: int, port: int, vc: int) -> OutputVC:
        """Accessor used by diagnostics (deadlock analysis, tests)."""
        return self._ovcs[node][port][vc]

    def input_vc(self, node: int, port: int, vc: int) -> InputVC:
        """Accessor used by diagnostics (deadlock analysis, tests)."""
        return self._invcs[node][port][vc]

    def iter_blocked_headers(self):
        """Input VCs whose header is awaiting an output VC."""
        return iter(self._needs_routing)

    def iter_active_vcs(self):
        """Input VCs with an allocated output VC."""
        return iter(self._active)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def attach_telemetry(self, registry) -> None:
        """Bind a :class:`repro.obs.TelemetryRegistry` to this run.

        Instruments are resolved once here, so the per-event cost while
        running is an attribute bump; call before :meth:`run` (counters
        accumulate, so one registry may be attached to several runs in
        sequence).  Attaching also enables the per-cycle VC-occupancy
        sweep (the same pass Figure 3's ``collect_vc_stats`` uses), so
        per-role occupancy and ``vc_busy`` agree by construction.
        """
        from repro.routing.budgets import ROLE_NAMES, ROLE_RING

        self.telemetry = registry
        budget = self.algorithm.budget
        self._role_of = budget.role_of if budget is not None else ()
        self._ring_role = ROLE_RING
        c = registry.counter
        self._t_generated = c("engine.messages.generated")
        self._t_injected = c("engine.messages.injected")
        self._t_delivered = c("engine.messages.delivered")
        self._t_flit_hops = c("engine.flits.hops")
        self._t_ejected = c("engine.flits.ejected")
        self._t_blocked = c("engine.headers.blocked_cycles")
        self._t_drain_deadlock = c("engine.drains.deadlock")
        self._t_drain_livelock = c("engine.drains.livelock")
        self._t_alloc_role = tuple(
            c(f"engine.vc_alloc.{name}") for name in ROLE_NAMES
        )
        self._t_busy_role = tuple(
            c(f"engine.vc_busy.{name}") for name in ROLE_NAMES
        )
        self._t_latency = registry.histogram("engine.latency")
        self._g_inflight = registry.gauge("engine.inflight_flits")
        self._t_node_hops = registry.labeled_counter(
            "engine.node_flit_hops", self.mesh.n_nodes
        )
        self._t_node_blocked = registry.labeled_counter(
            "engine.node_blocked", self.mesh.n_nodes
        )
        # Windowed time series (the `obs timeline` surface): same events
        # as the run-cumulative counters above, bucketed into
        # fixed-width cycle windows.
        w = self.config.resolved_window
        s = registry.series
        self._s_ejected = s("engine.series.flits.ejected", w)
        self._s_delivered = s("engine.series.messages.delivered", w)
        self._s_latency = s("engine.series.latency.sum", w)
        self._s_blocked = s("engine.series.headers.blocked_cycles", w)
        self._s_busy_role = tuple(
            s(f"engine.series.vc_busy.{name}", w) for name in ROLE_NAMES
        )
        self._t_fring: dict[int, object] = {}

    def attach_profiler(self, profiler) -> None:
        """Bind a :class:`repro.obs.PhaseProfiler` to this run.

        The per-cycle loop then reports phase boundaries to it; every
        wall-clock read stays inside the profiler object (the engine
        remains cycle-driven and REP006-clean).  The profiler only
        *reads* engine state between cycles and draws no RNG, so an
        attached run is bit-identical to a detached one — the same
        guarantee (and A/B test pattern) as telemetry.  May be called
        mid-run, e.g. after an unprofiled warmup.
        """
        self.profiler = profiler
        profiler.bind(self)

    def attach_blame(self, recorder) -> None:
        """Bind a :class:`repro.obs.blame.BlameRecorder` to this run.

        The engine then reports per-message blame events: one per
        blocked-header cycle, one per VC grant (classified ring vs
        productive with the same condition as the f-ring telemetry),
        a finalize at tail ejection and a discard on recovery drains.
        The recorder only *receives* counts and draws no RNG, so an
        attached run is bit-identical to a detached one — the same
        contract (and A/B twin test) as telemetry.  Methods are bound
        once here; detached runs pay one ``is not None`` check per site.
        """
        from repro.routing.budgets import ROLE_RING

        self.blame = recorder
        recorder.bind_mesh(self.mesh)
        budget = self.algorithm.budget
        self._b_role_of = budget.role_of if budget is not None else ()
        self._b_ring_role = ROLE_RING
        self._b_blocked = recorder.header_blocked
        self._b_grant = recorder.route_granted
        self._b_ring = recorder.ring_granted
        self._b_finalize = recorder.message_delivered
        self._b_drop = recorder.message_dropped

    def _fring_counter(self, ring):
        """The per-f-ring traversal counter (lazy, keyed by identity)."""
        counter = self._t_fring.get(id(ring))
        if counter is None:
            r = ring.region
            kind = "ring" if ring.closed else "chain"
            counter = self.telemetry.counter(
                f"engine.fring.{kind}[{r.x0},{r.y0},{r.x1},{r.y1}].traversals"
            )
            self._t_fring[id(ring)] = counter
        return counter

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Run the configured number of cycles and return the statistics.

        With ``cycles_mode="auto"`` the loop additionally checks, at
        every post-warmup window boundary, whether the batch-means CI
        on the per-window latency means has converged
        (:meth:`_ci_converged`); if so it stops early and records the
        cycles actually measured.  ``cfg.cycles`` remains the bound.
        """
        self._advance(self.config.cycles, self._auto)
        self.result.class_caps = self.algorithm.class_caps
        return self.result

    def step(self, cycles: int = 1) -> None:
        """Advance the simulation a fixed number of cycles (for tests).

        ``step`` never early-stops — ``cycles_mode="auto"`` only acts
        in :meth:`run`, so incremental test drivers see every cycle
        they ask for.
        """
        self._advance(cycles, False)

    def _advance(self, cycles: int, auto: bool) -> None:
        """The per-cycle loop behind :meth:`run` and :meth:`step`."""
        cfg = self.config
        warmup = cfg.warmup
        collect_vc = cfg.collect_vc_stats or self.telemetry is not None
        win = self._win
        profiler = self.profiler
        for _ in range(cycles):
            cycle = self.cycle
            if profiler is not None:
                profiler.start_cycle(cycle)
            self._generate(cycle)
            if profiler is not None:
                profiler.lap(_PH_GENERATE)
            self._inject(cycle)
            if profiler is not None:
                profiler.lap(_PH_INJECT)
            self._route(cycle)
            if profiler is not None:
                profiler.lap(_PH_ROUTE)
            self._switch_and_traverse(cycle)
            if profiler is not None:
                profiler.lap(_PH_SWITCH)
            if cycle % _WATCHDOG_INTERVAL == 0:
                self._watchdog(cycle)
                if profiler is not None:
                    profiler.lap(_PH_WATCHDOG)
            if collect_vc and cycle >= warmup:
                self._collect_vc(cycle)
                if profiler is not None:
                    profiler.lap(_PH_COLLECT_VC)
            if profiler is not None:
                profiler.end_cycle(self)
            self.cycle = cycle = cycle + 1
            if (
                auto
                and cycle % win == 0
                and cycle > warmup
                and self._ci_converged()
            ):
                self.result.measured_cycles = cycle - warmup
                break

    # ------------------------------------------------------------------
    # Phase 0: traffic generation
    # ------------------------------------------------------------------
    def submit_message(self, src: int, dst: int, cycle: int | None = None) -> Message:
        """Inject a hand-crafted message (examples and tests)."""
        if self.faults.faulty_mask[src] or self.faults.faulty_mask[dst]:
            raise ValueError("messages must travel between healthy nodes")
        msg = Message(
            self._msg_counter, src, dst, self.config.message_length,
            self.cycle if cycle is None else cycle,
        )
        self._msg_counter += 1
        self.algorithm.new_message(msg)
        self._queues[src].append(msg)
        self._inj_pending[src] = None
        self.total_generated += 1
        if self.telemetry is not None:
            self._t_generated.inc(msg.created)
        if msg.created >= self.config.warmup:
            self.result.generated += 1
        return msg

    def _generate(self, cycle: int) -> None:
        for src in self._arrivals.due(cycle):
            dst = self.pattern.destination(src, self.rng)
            self.submit_message(src, dst, cycle)

    # ------------------------------------------------------------------
    # Phase 1: injection (PE -> router local port, 1 flit/cycle/node)
    # ------------------------------------------------------------------
    def _inject(self, cycle: int) -> None:
        pending = self._inj_pending
        if not pending:
            return
        depth = self.config.buffer_depth
        inj_vcs = self.config.injection_vcs
        queues = self._queues
        node_streams = self._streams
        needs_routing = self._needs_routing
        tracer = self.tracer
        telemetry = self.telemetry
        done_nodes = []
        for node in pending:
            streams = node_streams[node]
            if len(streams) < inj_vcs:
                # Bind queued messages to free injection VCs.
                queue = queues[node]
                if queue:
                    used = {s.invc.vc for s in streams}
                    local = self._invcs[node][LOCAL]
                    for v in range(inj_vcs):
                        if not queue:
                            break
                        if v in used:
                            continue
                        invc = local[v]
                        if invc.msg is None and not invc.buffer:
                            streams.append(_Stream(invc, queue.popleft()))
                if not streams:
                    if not queue:
                        done_nodes.append(node)
                    continue
            # Move one flit across the injection link.
            if len(streams) == 1:  # fast path: the common single-port case
                s = streams[0]
                if len(s.invc.buffer) >= depth:
                    continue
            else:
                ready = [s for s in streams if len(s.invc.buffer) < depth]
                if not ready:
                    continue
                s = (
                    ready[self.rng.randrange(len(ready))]
                    if len(ready) > 1 else ready[0]
                )
            msg = s.msg
            invc = s.invc
            sent = s.sent
            if sent == 0:
                msg.injected = cycle
                # A single-flit message's head is also its tail.
                kind = TAIL if msg.length == 1 else HEAD
                if tracer is not None:
                    tracer.record(cycle, "inject", msg.id, node)
                if telemetry is not None:
                    self._t_injected.inc(cycle)
            elif sent == msg.length - 1:
                kind = TAIL
            else:
                kind = BODY
            invc.buffer.append((msg, kind))
            if invc.msg is None:
                invc.msg = msg
                invc.blocked_since = cycle
                needs_routing[invc] = None
            s.sent = sent = sent + 1
            if sent == msg.length:
                streams.remove(s)
                if not streams and not queues[node]:
                    done_nodes.append(node)
        for node in done_nodes:
            del pending[node]

    # ------------------------------------------------------------------
    # Phase 2: routing + VC allocation
    # ------------------------------------------------------------------
    def _route(self, cycle: int) -> None:
        needs_routing = self._needs_routing
        if not needs_routing:
            return
        items = list(needs_routing)
        if len(items) > 1:
            self._perm_rng.shuffle(items)
        rng = self.rng
        alg = self.algorithm
        ovcs = self._ovcs
        releases = self._releases
        hop_cap = self._hop_cap
        eject_tiers = [[(LOCAL, range(self.config.vcs_per_channel))]]
        tracer = self.tracer
        telemetry = self.telemetry
        blame = self.blame
        for invc in items:
            wait = needs_routing.get(invc, False)
            if wait is False:  # drained meanwhile
                continue
            msg = invc.msg
            node = invc.node
            if msg.hops >= hop_cap:
                self._drain(msg, livelock=True)
                continue
            granted: OutputVC | None = None
            if wait is not None and wait[0] == releases[node]:
                # No output VC here was freed since this header last
                # failed, so a retry cannot grant (module docstring);
                # replay the attempt's class_caps count instead.
                alg.class_caps += wait[1]
            else:
                caps = alg.class_caps
                tiers = (
                    eject_tiers if node == msg.dst
                    else alg.candidate_tiers(msg, node)
                )
                ovcs_node = ovcs[node]
                for tier in tiers:
                    free = [
                        ovc
                        for direction, vcs in tier
                        for ovc in map(ovcs_node[direction].__getitem__, vcs)
                        if ovc.owner is None
                    ]
                    if free:
                        granted = (
                            free[rng.randrange(len(free))]
                            if len(free) > 1 else free[0]
                        )
                        break
                if granted is None:
                    needs_routing[invc] = (releases[node], alg.class_caps - caps)
            if granted is None:
                if telemetry is not None:
                    self._t_blocked.inc(cycle)
                    self._t_node_blocked.inc(cycle, node)
                    self._s_blocked.add(cycle)
                if blame is not None:
                    self._b_blocked(msg)
                continue
            granted.owner = invc
            invc.out_ovc = granted
            invc.blocked_since = -1
            del needs_routing[invc]
            self._active[invc] = None
            if tracer is not None:
                tracer.record(
                    cycle, "alloc", msg.id, node, (granted.port, granted.vc)
                )
            if granted.is_ejection:
                continue
            if telemetry is not None:
                role = self._role_of[granted.vc]
                self._t_alloc_role[role].inc(cycle)
                if role == self._ring_role and msg.ring is not None:
                    self._fring_counter(msg.ring).inc(cycle)
            if blame is not None:
                # Ring classification matches the f-ring telemetry above.
                role_of = self._b_role_of
                if (
                    role_of
                    and role_of[granted.vc] == self._b_ring_role
                    and msg.ring is not None
                ):
                    self._b_ring(msg)
                else:
                    self._b_grant(msg)
            alg.on_vc_allocated(msg, node, granted.port, granted.vc)

    # ------------------------------------------------------------------
    # Phase 3: switch allocation + traversal
    # ------------------------------------------------------------------
    def _switch_and_traverse(self, cycle: int) -> None:
        active = self._active
        if not active:
            return
        # Ejection OVCs keep ``credits == depth`` for good (nothing ever
        # spends them), so one credit test covers both kinds of output.
        cands = [
            invc for invc in active if invc.buffer and invc.out_ovc.credits > 0
        ]
        if len(cands) > 1:
            self._perm_rng.shuffle(cands)
        measuring = cycle >= self.config.warmup
        node_load = (
            self.result.node_load
            if measuring and self.config.collect_node_stats
            else None
        )
        tracer = self.tracer
        telemetry = self.telemetry
        in_used = bytearray(self._n_ports)
        out_used = bytearray(self._n_ports)
        arrivals: list[tuple[InputVC, tuple[Message, int]]] = []
        ejected = 0
        for invc in cands:
            ip = invc.pid
            if in_used[ip]:
                continue
            ovc = invc.out_ovc
            op = ovc.pid
            if out_used[op]:
                continue
            in_used[ip] = out_used[op] = 1
            flit = invc.buffer.popleft()
            msg, kind = flit
            up = invc.up_ovc
            if up is not None:
                up.credits += 1
            if node_load is not None:
                node_load[invc.node] += 1
            if tracer is not None:
                tracer.record(cycle, "move", msg.id, invc.node, kind)
            if telemetry is not None:
                self._t_flit_hops.inc(cycle)
                self._t_node_hops.inc(cycle, invc.node)
            if ovc.is_ejection:
                ejected += 1
                if telemetry is not None:
                    self._t_ejected.inc(cycle)
                    self._s_ejected.add(cycle)
                if kind == TAIL:
                    self._deliver(msg, invc.node, cycle, measuring)
            else:
                ovc.credits -= 1
                down = ovc.down_invc
                if down.msg is msg:
                    # The worm holds *down*: the flit lands behind older
                    # flits of its message, so nothing pops it this cycle.
                    down.buffer.append(flit)
                else:
                    # A head: *down* is idle or still holds the previous
                    # message, whose retirement this cycle must not see
                    # the new flit.  It lands after all moves.
                    arrivals.append((down, flit))
            if kind == TAIL:
                self._retire_front(invc, cycle)
        if measuring:
            self.result.delivered_flits += ejected
        needs_routing = self._needs_routing
        for invc, flit in arrivals:
            invc.buffer.append(flit)
            if invc.msg is None:
                invc.msg = flit[0]
                invc.blocked_since = cycle
                needs_routing[invc] = None

    def _deliver(self, msg: Message, node: int, cycle: int,
                 measuring: bool) -> None:
        """The tail of *msg* just ejected at *node*: account a delivery."""
        msg.delivered = cycle
        self.total_delivered += 1
        latency = cycle - msg.created
        if self._auto:
            self._auto_observe(cycle, latency)
        if self.tracer is not None:
            self.tracer.record(cycle, "deliver", msg.id, node)
        if self.telemetry is not None:
            self._t_delivered.inc(cycle)
            self._t_latency.observe(cycle, latency)
            self._s_delivered.add(cycle)
            self._s_latency.add(cycle, latency)
        if self.blame is not None:
            self._b_finalize(msg, cycle)
        if measuring:
            result = self.result
            result.delivered += 1
            if self.config.collect_latency_samples:
                result.latency_samples.append(latency)
            result.latency_sum += latency
            result.latency_sq_sum += latency * latency
            if latency > result.latency_max:
                result.latency_max = latency
            result.network_latency_sum += cycle - msg.injected
            result.hops_sum += msg.hops

    def _retire_front(self, invc: InputVC, cycle: int) -> None:
        """The front message left *invc* (its tail moved on, or it was
        drained): free its output VC, promote the next message or idle."""
        if invc.out_ovc is not None:
            invc.out_ovc.owner = None
            invc.out_ovc = None
            self._releases[invc.node] += 1  # wakes this router's headers
        self._active.pop(invc, None)
        self._needs_routing.pop(invc, None)
        if invc.buffer:
            # In-order wormhole delivery: the next flit must be a header.
            invc.msg = invc.buffer[0][0]
            invc.blocked_since = cycle
            self._needs_routing[invc] = None
        else:
            invc.msg = None

    # ------------------------------------------------------------------
    # Early stopping (cycles_mode="auto")
    # ------------------------------------------------------------------
    def _auto_observe(self, cycle: int, latency: int) -> None:
        """Fold one delivered message into the per-window accumulators."""
        idx = cycle // self._win
        sums = self._win_lat_sum
        if idx >= len(sums):
            grow = idx + 1 - len(sums)
            sums.extend([0] * grow)
            self._win_lat_cnt.extend([0] * grow)
        sums[idx] += latency
        self._win_lat_cnt[idx] += 1

    def _ci_converged(self) -> bool:
        """True when the post-warmup latency batches have converged.

        Batches are the complete windows strictly after the warmup
        boundary; convergence means at least ``_MIN_AUTO_BATCHES`` of
        them, every batch non-empty, and a 95% batch-means CI half-width
        at or below ``ci_rel_tol`` of the batch-mean latency.
        """
        cfg = self.config
        win = self._win
        first = -(-cfg.warmup // win)  # ceil: first fully post-warmup window
        last = self.cycle // win  # exclusive; windows [first, last) complete
        if last - first < _MIN_AUTO_BATCHES:
            return False
        cnts = self._win_lat_cnt
        if len(cnts) < last:
            return False  # trailing windows delivered nothing at all
        sums = self._win_lat_sum
        means = []
        for i in range(first, last):
            if cnts[i] == 0:
                return False  # an empty batch: not in steady state
            means.append(sums[i] / cnts[i])
        from repro.obs.converge import batch_means_ci

        mean, half_width = batch_means_ci(means)
        return mean > 0 and half_width <= cfg.ci_rel_tol * mean

    # ------------------------------------------------------------------
    # Watchdog: deadlock & livelock handling
    # ------------------------------------------------------------------
    def _watchdog(self, cycle: int) -> None:
        timeout = self._timeout
        action = self.config.on_deadlock
        if self.telemetry is not None:
            self._g_inflight.set(cycle, self.flits_in_network())
        stuck = [
            invc
            for invc in self._needs_routing
            if invc.blocked_since >= 0 and cycle - invc.blocked_since > timeout
        ]
        for invc in stuck:
            if invc not in self._needs_routing:
                continue
            if action == "raise":
                # Long waits at deep saturation are legitimate (a 100-flit
                # message holds a VC for hundreds of stretched cycles), so
                # the timeout alone is not proof: confirm with the exact
                # wait-for-graph analysis and raise only on a true
                # circular wait.  Plain starvation is counted and rearmed.
                from repro.simulator.deadlock import find_dependency_cycle

                found = find_dependency_cycle(self)
                if found is not None:
                    msg = invc.msg
                    raise DeadlockError(
                        f"circular wait of {len(found)} VCs detected; first "
                        f"stuck header: message {msg.id} ({msg.src}->"
                        f"{msg.dst}) blocked at node {invc.node} port "
                        f"{invc.port} vc {invc.vc} since cycle "
                        f"{invc.blocked_since} (algorithm "
                        f"{self.algorithm.name!r}, cycle {cycle})",
                        cycle=cycle,
                        details=repr(found),
                    )
                self.result.deadlock_suspects += 1
                for other in stuck:
                    if other in self._needs_routing:
                        other.blocked_since = cycle  # rearm all
                break
            if action == "count":
                self.result.deadlock_suspects += 1
                invc.blocked_since = cycle  # rearm
            else:  # drain
                self._drain(invc.msg, livelock=False)

    def _drain(self, msg: Message, *, livelock: bool) -> None:
        """Remove every flit of *msg* from the network (recovery)."""
        msg.dropped = True
        self.total_dropped += 1
        if self.tracer is not None:
            self.tracer.record(
                self.cycle, "drain", msg.id, msg.src,
                "livelock" if livelock else "deadlock",
            )
        if self.telemetry is not None:
            if livelock:
                self._t_drain_livelock.inc(self.cycle)
            else:
                self._t_drain_deadlock.inc(self.cycle)
        if self.blame is not None:
            self._b_drop(msg)
        if self.cycle >= self.config.warmup:
            if livelock:
                self.result.dropped_livelock += 1
            else:
                self.result.dropped_deadlock += 1
        # Stop the injection stream, if still feeding.
        streams = self._streams[msg.src]
        for s in list(streams):
            if s.msg is msg:
                streams.remove(s)
        # Sweep every busy input VC for this message's flits.
        for invc in list(self._active) + list(self._needs_routing):
            if invc.msg is not msg and not any(
                f[0] is msg for f in invc.buffer
            ):
                continue
            removed = sum(1 for f in invc.buffer if f[0] is msg)
            if removed:
                invc.buffer = deque(f for f in invc.buffer if f[0] is not msg)
                if invc.up_ovc is not None:
                    invc.up_ovc.credits += removed
            if invc.msg is msg:
                self._retire_front(invc, self.cycle)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def _collect_vc(self, cycle: int) -> None:
        if self.telemetry is None:
            vc_busy = self.result.vc_busy
            for invc in self._needs_routing:
                if invc.port != LOCAL:
                    vc_busy[invc.vc] += 1
            for invc in self._active:
                if invc.port != LOCAL:
                    vc_busy[invc.vc] += 1
            return
        # Telemetry attached: the same sweep also feeds the per-role
        # occupancy counters, so Figure 3's vc_busy and the telemetry
        # view agree by construction (reconcile_vc_usage checks this).
        track = self.config.collect_vc_stats
        vc_busy = self.result.vc_busy
        role_of = self._role_of
        busy_role = self._t_busy_role
        s_busy_role = self._s_busy_role
        for source in (self._needs_routing, self._active):
            for invc in source:
                if invc.port != LOCAL:
                    vc = invc.vc
                    if track:
                        vc_busy[vc] += 1
                    role = role_of[vc]
                    busy_role[role].inc(cycle)
                    s_busy_role[role].add(cycle)

    def check_invariants(self) -> None:
        """Verify internal consistency (used by the test suite).

        Checks credit accounting, ownership symmetry and busy-set
        membership; raises :class:`AssertionError` with a description on
        the first violation.
        """
        depth = self.config.buffer_depth
        for node in self.mesh.nodes():
            for port in range(5):
                for invc in self._invcs[node][port]:
                    if invc.buffer:
                        assert invc.msg is not None, (
                            f"{invc!r} holds flits but has no front message"
                        )
                    if invc.msg is not None:
                        in_routing = invc in self._needs_routing
                        in_active = invc in self._active
                        assert in_routing != in_active, (
                            f"{invc!r} busy but in routing={in_routing}, "
                            f"active={in_active}"
                        )
                        assert len(invc.buffer) <= depth, f"{invc!r} overflow"
                        if in_active:
                            assert invc.out_ovc is not None
                            assert invc.out_ovc.owner is invc
                    else:
                        assert not invc.buffer, f"{invc!r} idle with flits"
                        assert invc.out_ovc is None
                for ovc in self._ovcs[node][port]:
                    if ovc.owner is not None:
                        assert ovc.owner.out_ovc is ovc, (
                            f"{ovc!r} owner does not point back"
                        )
                    if ovc.down_invc is not None:
                        expect = depth - len(ovc.down_invc.buffer)
                        assert ovc.credits == expect, (
                            f"{ovc!r} credits {ovc.credits} != {expect}"
                        )

    def flits_in_network(self) -> int:
        """Flits currently buffered anywhere (conservation checks)."""
        # The two busy sets are disjoint (see check_invariants).
        return sum(
            len(invc.buffer)
            for busy in (self._active, self._needs_routing)
            for invc in busy
        )

    def messages_pending(self) -> int:
        """Messages generated but not yet fully injected."""
        queued = sum(len(q) for q in self._queues)
        streaming = sum(len(s) for s in self._streams)
        return queued + streaming

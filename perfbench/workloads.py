"""The four canonical workloads of the repository benchmark.

Each workload drives the program only through its public entry points
(``run_once``, ``run_campaign``, ``FabricRun``, ``run_live_scenario``) and
leaves every setting that is not an input property at the library default.
A workload is run in *units* — one stream, one campaign or one live
scenario — and every unit is checked before its numbers are used:
:meth:`Workload.summarize` raises :class:`BenchFailure` on any wrong
output.

All four are closed loops: the source offers its next message only when
its window allows (Axiom 1 stop-and-wait per link or lane, the fabric's
end-to-end window at the source).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: The fault mix of the single-link workloads (loss, duplication,
#: reordering and crashes of both stations).
FAULTS = dict(loss=0.2, duplicate=0.05, reorder=0.1, crash_t=0.002, crash_r=0.002)


class BenchFailure(Exception):
    """An output of the program failed its correctness check."""


@dataclass
class Unit:
    """What one checked unit contributes to the metrics.

    ``counts`` are additive work counters that are a deterministic function
    of the input: for a fixed input they must repeat exactly, across repeats
    and between traced and untraced runs.  ``timings`` are additive too but
    depend on clocks or timers.  ``ident`` holds other deterministic facts
    (a fingerprint, a stream digest), ``peaks`` combine by maximum.
    """

    delivered: int
    attempted: int
    counts: Dict[str, int] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    peaks: Dict[str, float] = field(default_factory=dict)
    ident: Dict[str, object] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def exact(self) -> Dict[str, object]:
        """Everything that must repeat exactly for the same input."""
        return dict(self.counts, delivered=self.delivered, **self.ident)

    def total(self, key: str) -> float:
        return self.counts.get(key, self.timings.get(key, 0))

    def absorb(self, other: "Unit") -> None:
        """Add another unit's totals into this one (maximum for peaks)."""
        self.delivered += other.delivered
        for mine, theirs in ((self.counts, other.counts), (self.timings, other.timings)):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value
        for key, value in other.peaks.items():
            self.peaks[key] = max(self.peaks.get(key, 0), value)


def unit_seeds(name: str, seed: int, count: int) -> List[int]:
    """``count`` distinct input seeds derived from the benchmark seed."""
    return [
        int.from_bytes(
            hashlib.sha256(f"perfbench/{name}/{seed}/{j}".encode()).digest()[:7],
            "big",
        )
        for j in range(count)
    ]


def _digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BenchFailure(message)


class Workload:
    """Base: sizes, the distinct-input count and the traced layers."""

    name = ""
    #: Distinct inputs per run; units cycle through them, so every input
    #: after the first pass is a repeat whose counters must match exactly.
    distinct = 3
    #: The counter that ``ticks_per_msg`` divides by delivered messages.
    tick_key = "ticks"

    def __init__(self, scale: float = 1.0) -> None:
        self.scale = scale

    def size(self, base: int) -> int:
        return max(1, int(base * self.scale))

    def load(self) -> None:
        """Import the program's modules (part of set-up time)."""
        raise NotImplementedError

    def start(self) -> None:
        """Start helper processes before the first unit (not timed)."""

    def build(self, seed: int):
        """Construct one unit's inputs (part of set-up time)."""
        raise NotImplementedError

    def run(self, inputs):
        """Run one unit through the public entry point (the timed part)."""
        raise NotImplementedError

    def summarize(self, result) -> Unit:
        """Check one unit's outputs and extract its counters."""
        raise NotImplementedError

    def trace_points(self) -> Dict[str, List[Tuple[object, str]]]:
        """Layer -> callables a traced run wraps (imports done by load)."""
        return {}

    def counting_pass(self, seed: int) -> Dict[str, float]:
        """End-to-end metrics the public results lack, from an untimed run.

        Returns metric name -> value; the default has nothing to add.
        """
        return {}

    def _station_points(self) -> Dict[str, List[Tuple[object, str]]]:
        from repro.channel.channel import Channel
        from repro.checkers.trace import Trace
        from repro.core.receiver import Receiver
        from repro.core.transmitter import Transmitter
        from repro.kernel import engine
        from repro.kernel.hop import HopKernel

        return {
            "core.tmrm": [
                (Transmitter, "send_msg"),
                (Transmitter, "on_receive_pkt"),
                (Receiver, "retry"),
                (Receiver, "on_receive_pkt"),
            ],
            "channel": [(Channel, "send_pkt"), (Channel, "deliver_pkt")],
            # Trace instances with retain="none" bind _append_none as their
            # append at construction, so both spellings are wrapped.
            "checkers.trace_append": [(Trace, "append"), (Trace, "_append_none")],
            "kernel": [(engine, "run_kernel"), (HopKernel, "tick")],
        }


def _sim_unit(metrics) -> Unit:
    """Counters shared by the single-link workloads (one SimulationMetrics)."""
    return Unit(
        delivered=metrics.messages_delivered,
        attempted=metrics.messages_submitted,
        counts={
            "steps": metrics.steps,
            "packets": metrics.packets_sent,
            "packets_delivered": metrics.packets_delivered,
            "bits": metrics.bits_sent,
            "extensions": metrics.transmitter_extensions + metrics.receiver_extensions,
            "events": metrics.events_recorded,
            "ok": metrics.messages_ok,
            "crash_aborted": metrics.messages_submitted - metrics.messages_ok,
            "crashes_t": metrics.crashes_t,
            "crashes_r": metrics.crashes_r,
        },
        timings={"checker_s": metrics.checker_seconds},
        peaks={"storage_peak_bits": metrics.storage_peak_bits},
    )


class LinkFaulty(Workload):
    """One lossy, crashing data link: the protocol layers do all the work."""

    name = "link-faulty"
    distinct = 3
    tick_key = "steps"

    def load(self) -> None:
        from repro.adversary.random_faults import FaultProfile, RandomFaultAdversary
        from repro.sim.runner import RunSpec, run_once

        self._profile = FaultProfile(**FAULTS)
        self._adversary = RandomFaultAdversary
        self._spec = RunSpec
        self._run_once = run_once

    def build(self, seed: int):
        profile, adversary = self._profile, self._adversary
        spec = self._spec.default(
            adversary_factory=lambda: adversary(profile),
            messages=self.size(10_000),
        )
        return spec, seed

    def run(self, inputs):
        spec, seed = inputs
        return self._run_once(spec, seed)

    def summarize(self, outcome) -> Unit:
        _require(outcome.result.completed, "link-faulty: stream did not complete")
        _require(outcome.safety.passed, "link-faulty: Section 2.6 safety violated")
        _require(outcome.liveness_passed, "link-faulty: liveness violated")
        link = outcome.result.link
        # Stations keep their tapes privately; bits_drawn is the public
        # counter on each tape.
        rng_bits = (
            link.transmitter._rng.bits_drawn + link.receiver._rng.bits_drawn
        )
        unit = _sim_unit(outcome.metrics)
        unit.counts["moves"] = outcome.result.adversary.moves_made
        unit.counts["rng_bits"] = rng_bits
        return unit

    def trace_points(self):
        from repro.adversary.fairness import FairnessEnforcer
        from repro.checkers.streaming import StreamingChecks
        from repro.sim.simulator import Simulator

        points = self._station_points()
        # The simulator and the fairness wrapper bind _decide when they are
        # built, which happens inside the traced run_once call.
        points["adversary"] = [
            (FairnessEnforcer, "_decide"),
            (FairnessEnforcer, "on_new_pkt"),
            (self._adversary, "_decide"),
        ]
        points["checkers.observe"] = [(StreamingChecks, "observe")]
        points["sim.run"] = [(Simulator, "run")]
        return points


class CampaignShort(Workload):
    """Many 4-message runs: dispatch weighs as much as the protocol."""

    name = "campaign-short"
    distinct = 3
    tick_key = "steps"

    def load(self) -> None:
        from repro.adversary.random_faults import FaultProfile, RandomFaultAdversary
        from repro.resilience.supervisor import CampaignConfig, run_campaign
        from repro.sim.runner import RunSpec

        self._profile = FaultProfile(**FAULTS)
        self._adversary = RandomFaultAdversary
        self._spec = RunSpec
        self._config = CampaignConfig
        self._run_campaign = run_campaign

    def start(self) -> None:
        # Shared-memory report transport registers segments with
        # multiprocessing's resource tracker.  Started here, it is this
        # process's child, which forked workers reuse and which
        # stop_children() can end; a worker would otherwise start one of
        # its own that outlives it.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()

    def build(self, seed: int):
        profile, adversary = self._profile, self._adversary
        # `repro campaign` defaults: tail retention, 200k step budget,
        # label "paper"; one worker process.
        spec = self._spec.default(
            adversary_factory=lambda: adversary(profile),
            messages=4,
            max_steps=200_000,
            retain="tail",
            label="paper",
        )
        return spec, self.size(600), seed, self._config(jobs=1)

    def run(self, inputs):
        spec, runs, seed, config = inputs
        return self._run_campaign(spec, runs, base_seed=seed, config=config)

    def summarize(self, result) -> Unit:
        bad = [r for r in result.reports if r.status.value != "ok"]
        _require(not bad, f"campaign-short: {len(bad)} runs not ok")
        _require(len(result.reports) == result.runs, "campaign-short: runs missing")
        metrics = [r.metrics for r in result.reports]
        unit = Unit(
            delivered=0,
            attempted=result.runs,
            ident={"fingerprint": _digest(result.fingerprint())},
        )
        for m in metrics:
            unit.absorb(_sim_unit(m))
        unit.counts["runs"] = result.runs
        unit.timings["run_wall_s"] = sum(m.wall_seconds for m in metrics)
        unit.timings["campaign_wall_s"] = result.wall_seconds
        return unit


class FabricRingFlaky(Workload):
    """An 8-node ring relay fabric with flaky links."""

    name = "fabric-ring-flaky"
    # Link failures make per-stream work vary widely between inputs (ticks
    # per message by about 10%); 16 inputs keep the per-message counters
    # steady from seed to seed.
    distinct = 16

    def load(self) -> None:
        from repro.transport.fabric import FabricRun, FabricSpec

        self._spec = FabricSpec
        self._run = FabricRun

    def build(self, seed: int):
        spec = self._spec(
            topology="ring", size=8, fail_rate=0.02, messages=self.size(1000)
        )
        return spec, seed

    def run(self, inputs):
        spec, seed = inputs
        fabric = self._run(spec, (), seed)
        return fabric, fabric.run()

    def summarize(self, result) -> Unit:
        fabric, outcome = result
        _require(fabric.completed, "fabric-ring-flaky: stream did not complete")
        _require(
            fabric.verdict() == "CLEAN",
            "fabric-ring-flaky: end-to-end verdict is VIOLATED",
        )
        m = outcome.metrics
        _require(
            m.messages_delivered == fabric.spec.messages,
            "fabric-ring-flaky: destination did not receive every message",
        )
        return Unit(
            delivered=m.messages_delivered,
            attempted=m.messages_submitted,
            counts={
                "ticks": fabric.ticks,
                "packets": m.packets_sent,
                "packets_delivered": m.packets_delivered,
                "bits": m.bits_sent,
                "extensions": m.transmitter_extensions + m.receiver_extensions,
                "reroutes": fabric.reroutes,
                "retransmits": fabric.retransmits,
                "dup_drops": fabric.dup_drops,
                "dropped_down": fabric.dropped_down,
                "dropped_overflow": fabric.dropped_overflow,
            },
        )

    def counting_pass(self, seed: int) -> Dict[str, float]:
        """Peak combined nonce storage of all hop stations during a stream.

        The fabric's own metrics report only the end-of-stream storage, so
        this untimed run captures every hop's data link as the fabric makes
        it and sums their storage after every hop tick.  If no hop ticks on
        the object graph (a kernel engine keeps station state in flat
        slots until the end), the end-of-stream figure stands in.
        """
        from repro.transport import fabric

        links = []
        peak = [0]
        make_link = fabric.make_data_link
        tick = fabric._LinkSimulator.tick

        def capturing_make_link(*args, **kwargs):
            link = make_link(*args, **kwargs)
            links.append(link)
            return link

        def sampling_tick(hop, steps):
            tick(hop, steps)
            storage = sum(link.total_storage_bits() for link in links)
            if storage > peak[0]:
                peak[0] = storage

        fabric.make_data_link = capturing_make_link
        fabric._LinkSimulator.tick = sampling_tick
        try:
            result = self.run(self.build(seed))
        finally:
            fabric.make_data_link = make_link
            fabric._LinkSimulator.tick = tick
        self.summarize(result)
        final = result[1].metrics.storage_final_bits
        return {"storage_peak_bits": max(peak[0], final)}

    def trace_points(self):
        import networkx

        from repro.checkers.endtoend import EndToEndMonitor
        from repro.transport import fabric
        from repro.transport.network import Network

        points = self._station_points()
        points["transport.route"] = [
            (networkx, "shortest_path"),
            (Network, "up_subgraph"),
        ]
        points["transport.fabric"] = [(fabric.FabricRun, "run")]
        points["transport.hop"] = [(fabric._LinkSimulator, "tick")]
        points["checkers.e2e"] = [(EndToEndMonitor, "observe")]
        return points


class LiveLanes(Workload):
    """Eight lanes over loopback UDP through the chaos proxy, no loss."""

    name = "live-lanes"
    distinct = 3

    def load(self) -> None:
        from repro.live import BackoffPolicy, LiveScenario
        from repro.live.scenario import run_live_scenario

        self._scenario = LiveScenario
        # A fast, tightly jittered poll schedule keeps the RM's
        # acknowledgements, not its poll timer, on the critical path.
        self._poll = BackoffPolicy(base=0.004, factor=2.0, cap=0.05, jitter=0.25)
        self._run = run_live_scenario

    def build(self, seed: int):
        return self._scenario(
            messages=self.size(3000), seed=seed, poll=self._poll, lanes=8
        )

    def run(self, scenario):
        return self._run(scenario)

    def summarize(self, report) -> Unit:
        _require(report.ok, f"live-lanes: run not ok ({report.reason})")
        expected = [b"live-%05d" % i for i in range(report.scenario.messages)]
        _require(
            report.delivered_stream == expected,
            "live-lanes: delivered stream differs from the submitted payloads",
        )
        stats = report.wire_stats
        delivered = len(report.delivered_stream)
        return Unit(
            delivered=delivered,
            attempted=report.scenario.messages,
            # Datagram and batch counts depend on timers; only the delivered
            # stream is a deterministic function of the input.
            ident={"stream": _digest(report.delivered_stream)},
            timings={
                # The proxy counts every datagram it observes (its turn
                # clock): the live analogue of a packet sent.
                "packets": report.proxy.observed,
                "forwarded": report.proxy.forwarded,
                "packets_delivered": report.proxy.forwarded,
                "datagrams_sent": stats.datagrams_sent,
                "datagrams_received": stats.datagrams_received,
                "send_batches": stats.send_batches,
                "recv_batches": stats.recv_batches,
            },
            peaks={
                "pool_high_water": report.pool_high_water,
                "resequencer_high_water": report.resequencer_high_water,
            },
            info={"mmsg": stats.mmsg},
        )

    def counting_pass(self, seed: int) -> Dict[str, float]:
        """An untimed extra run that counts wire bits, ticks and storage.

        The live report carries none of them, so this run wraps the
        proxy's per-datagram peek (bytes on the wire; the combined nonce
        storage of all stations is sampled there too), the link factory
        (to reach the stations) and the automata's transitions.  Live has
        no step clock: its ticks are the station transitions a simulator
        step would schedule (``send_msg``, ``retry`` and every packet
        received), the same calls ``core.tmrm`` wraps.
        """
        from repro.core.receiver import Receiver
        from repro.core.transmitter import Transmitter
        from repro.live import proxy, scenario

        links = []
        tally = {"bits": 0, "storage_peak_bits": 0, "ticks": 0}
        peek = proxy.peek_wire_info
        make_link = scenario.make_data_link
        transitions = [
            (Transmitter, "send_msg"),
            (Transmitter, "on_receive_pkt"),
            (Receiver, "retry"),
            (Receiver, "on_receive_pkt"),
        ]
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in transitions]

        def counting_peek(data):
            tally["bits"] += 8 * len(data)
            storage = sum(link.total_storage_bits() for link in links)
            if storage > tally["storage_peak_bits"]:
                tally["storage_peak_bits"] = storage
            return peek(data)

        def capturing_make_link(*args, **kwargs):
            link = make_link(*args, **kwargs)
            links.append(link)
            return link

        def counting(method):
            def transition(*args, **kwargs):
                tally["ticks"] += 1
                return method(*args, **kwargs)

            return transition

        proxy.peek_wire_info = counting_peek
        scenario.make_data_link = capturing_make_link
        for owner, attr, method in originals:
            setattr(owner, attr, counting(method))
        try:
            report = self.run(self.build(seed))
        finally:
            proxy.peek_wire_info = peek
            scenario.make_data_link = make_link
            for owner, attr, method in originals:
                setattr(owner, attr, method)
        unit = self.summarize(report)
        return {
            "bits_per_msg": tally["bits"] / unit.delivered,
            "ticks_per_msg": tally["ticks"] / unit.delivered,
            "storage_peak_bits": tally["storage_peak_bits"],
        }

    def trace_points(self):
        from repro.core.packets import PollEncoder
        from repro.live import endpoints, lanes, proxy
        from repro.live.wire import BatchedDatagramIO

        points = self._station_points()
        del points["channel"], points["kernel"], points["checkers.trace_append"]
        points["core.codec"] = [
            (endpoints, "encode_packet"),
            (endpoints, "encode_packet_into"),
            (endpoints, "decode_packet"),
            (lanes, "decode_packet"),
            (proxy, "peek_wire_info"),
            (PollEncoder, "encode"),
            (PollEncoder, "encode_into"),
        ]
        points["live.wire"] = [
            (BatchedDatagramIO, "send"),
            (BatchedDatagramIO, "send_pooled"),
            (BatchedDatagramIO, "flush"),
        ]
        return points


WORKLOADS = {w.name: w for w in (LinkFaulty, CampaignShort, FabricRingFlaky, LiveLanes)}

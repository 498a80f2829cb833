"""Live deployment: the GHM protocol on real sockets under injected chaos.

The simulator (:mod:`repro.sim`) proves properties of the automata under a
scheduled adversary; this package redeploys the *same automata* as
concurrent asyncio datagram endpoints exchanging the canonical byte
encoding over loopback UDP, with an in-path chaos proxy playing the
adversary at wire level and a crash orchestrator delivering the paper's
amnesia crashes against a real clock.  Every externally visible action is
mirrored into the PR-2 streaming checkers, so live traces receive the same
Section 2.6 verdicts as simulated ones.

Layout:

* :mod:`repro.live.backoff` — jittered exponential poll backoff (the live
  pacing of the RM's RETRY obligation);
* :mod:`repro.live.wire` — the socket layer every station and the proxy
  run on: batched drain/flush datagram I/O over pooled send buffers;
* :mod:`repro.live.proxy` — :class:`ChaosProxy`, compiling the campaign
  fault-plan schema plus a stochastic :class:`LinkProfile` into wire
  faults while honouring Section 2.3 adversary visibility (identifiers
  and lengths only);
* :mod:`repro.live.endpoints` — the TM/RM automata behind sockets, with
  crash-amnesia restarts;
* :mod:`repro.live.lanes` — K independent protocol instances striped over
  one socket pair (lane-framed wire, shared resequencer) for pipelined
  throughput past Axiom 1's one-message window;
* :mod:`repro.live.scenario` — scripted end-to-end runs with a hard
  wall-clock budget and a bounded give-up (UNRECONCILABLE, never a hang).
"""

from repro.live.backoff import AdaptiveBackoff, BackoffPolicy
from repro.live.endpoints import ReceiverEndpoint, TransmitterEndpoint
from repro.live.lanes import (
    LaneMetrics,
    LanedReceiverEndpoint,
    LanedTransmitterEndpoint,
)
from repro.live.proxy import ChaosProxy, LinkProfile, ProxyStats
from repro.live.scenario import (
    LiveRunReport,
    LiveScenario,
    LiveStatus,
    run_live_scenario,
    run_live_scenario_async,
)

__all__ = [
    "AdaptiveBackoff",
    "BackoffPolicy",
    "ChaosProxy",
    "LaneMetrics",
    "LanedReceiverEndpoint",
    "LanedTransmitterEndpoint",
    "LinkProfile",
    "LiveRunReport",
    "LiveScenario",
    "LiveStatus",
    "ProxyStats",
    "ReceiverEndpoint",
    "TransmitterEndpoint",
    "run_live_scenario",
    "run_live_scenario_async",
]

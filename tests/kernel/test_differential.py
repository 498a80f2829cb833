"""Differential pinning: kernel engine == object engine, event for event.

Every test runs the same spec under the same seed on both engines and
requires the two executions to be *identical*: the full trace (under
``retain="full"`` every event of the run is recorded), the Section 2.6
verdicts, the frozen metrics (minus wall-clock fields), the stations'
final state, the channels' counters, the adversary's bookkeeping, and the
stations' RNG tape positions.  The zoo spans the model's whole fault
vocabulary — reliable FIFO, random loss/duplication/reordering, station
crashes, scripted drop/dup/stall/crash/corrupt plans, arbitrary-state
corruption with the stabilization monitor attached — plus both fairness
settings and truncated (max_steps-bounded) runs.
"""

import dataclasses
import inspect

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.adversary.benign import DelayedFifoAdversary, ReliableAdversary
from repro.adversary.corruption import StateCorruptionAdversary
from repro.adversary.fairness import StallingAdversary
from repro.adversary.random_faults import (
    DuplicateFloodAdversary,
    FaultProfile,
    RandomFaultAdversary,
    ReorderAdversary,
)
from repro.baselines import (
    make_abp_link,
    make_nonvolatile_bit_link,
    make_stop_and_wait_link,
)
from repro.cli import build_parser
from repro.resilience.faultplan import (
    CorruptAt,
    CrashAt,
    DropWindow,
    DuplicateBurst,
    FaultPlan,
    StallWindow,
    apply_fault_plan,
)
from repro.kernel import engine as kernel_engine
from repro.sim.runner import RunSession, RunSpec, run_once
from repro.sim.simulator import Simulator
from repro.transport.fabric import FabricSpec

SEEDS = [0, 1, 7, 42, 1234]


def build_spec(adversary_factory, engine, **overrides):
    options = dict(
        epsilon=2.0 ** -8,
        adversary_factory=adversary_factory,
        messages=25,
        retain="full",
        max_steps=60_000,
        engine=engine,
    )
    options.update(overrides)
    plan = options.pop("fault_plan", None)
    link_factory = options.pop("link_factory", None)
    spec = RunSpec.default(**options)
    if link_factory is not None:
        spec = dataclasses.replace(spec, link_factory=link_factory)
    if plan is not None:
        spec = apply_fault_plan(spec, plan)
    return spec


def metrics_key(metrics):
    """Everything deterministic in the frozen metrics (wall-clock excluded)."""
    wire = metrics.to_wire()
    return wire[:16] + wire[18:] + (tuple(metrics.storage_samples),)


def stabilization_key(report):
    if report is None:
        return None
    return (
        report.corruptions,
        report.converged,
        report.window,
        tuple(
            (r.station, tuple(r.fields), r.seed, r.events, r.datagrams)
            for r in report.records
        ),
    )


def safety_key(safety):
    return tuple(
        (r.condition, r.passed, r.failure_count, r.trials)
        for r in safety.all_reports
    )


def assert_equivalent(adversary_factory, seed, **overrides):
    object_outcome = run_once(
        build_spec(adversary_factory, "object", **overrides), seed
    )
    obj = snapshot(object_outcome)
    kernel_outcome = run_once(
        build_spec(adversary_factory, "kernel", **overrides), seed
    )
    ker = snapshot(kernel_outcome)
    assert obj["events"] == ker["events"]
    for key in obj:
        assert obj[key] == ker[key], f"engines diverge on {key}"


def bits_drawn(station):
    """A station's RNG tape position; baseline protocols draw no coins."""
    rng = getattr(station, "_rng", None)
    return None if rng is None else rng.bits_drawn


def snapshot(outcome):
    """Extract every deterministic observable of one finished run."""
    result = outcome.result
    link = result.link
    t, r = link.transmitter, link.receiver
    adversary = result.adversary
    adv_state = {
        "moves_made": adversary.moves_made,
        "type": type(adversary).__name__,
    }
    for name in ("forced_deliveries", "dropped", "duplicated",
                 "crashes_injected", "redeliveries"):
        if hasattr(adversary, name):
            adv_state[name] = getattr(adversary, name)
    inner = getattr(adversary, "inner", None)
    if inner is not None:
        adv_state["inner_type"] = type(inner).__name__
        adv_state["inner_moves"] = inner.moves_made
        for name in ("dropped", "duplicated", "crashes_injected"):
            if hasattr(inner, name):
                adv_state["inner_" + name] = getattr(inner, name)
    trace = result.trace
    return {
        "events": list(trace.events),
        "counts": (trace.packets_sent(), trace.packets_delivered(),
                   trace.retries(), trace.ok_count(), trace.crash_count()),
        "completed": result.completed,
        "steps": result.steps,
        "metrics": metrics_key(result.metrics),
        "safety": safety_key(outcome.safety),
        "liveness": outcome.liveness_passed,
        "stabilization": stabilization_key(outcome.stabilization),
        "transmitter": repr(t),
        "receiver": repr(r),
        "t_bits_drawn": bits_drawn(t),
        "r_bits_drawn": bits_drawn(r),
        "t_stats": vars(t.stats).copy(),
        "r_stats": vars(r.stats).copy(),
        "adversary": adv_state,
    }


class TestReliable:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fair_reliable(self, seed):
        assert_equivalent(ReliableAdversary, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bare_reliable(self, seed):
        assert_equivalent(ReliableAdversary, seed, enforce_fairness=False)

    def test_truncated_run(self):
        # max_steps exhaustion: both engines stop mid-flight identically.
        assert_equivalent(ReliableAdversary, 3, max_steps=37)

    def test_single_step_budget(self):
        assert_equivalent(ReliableAdversary, 5, max_steps=1)

    def test_empty_workload(self):
        assert_equivalent(ReliableAdversary, 9, messages=0)


class TestRandomFaults:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_lossy(self, seed):
        factory = lambda: RandomFaultAdversary(
            FaultProfile(loss=0.15, duplicate=0.1)
        )
        assert_equivalent(factory, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_fault_class(self, seed):
        factory = lambda: RandomFaultAdversary(
            FaultProfile(
                loss=0.2, duplicate=0.1, reorder=0.15,
                crash_t=0.002, crash_r=0.002,
            )
        )
        assert_equivalent(factory, seed, max_steps=30_000)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_high_loss_low_patience_forces_deliveries(self, seed):
        # Dropped packets linger in the enforcer's pending sets, so a high
        # loss rate plus a short patience exercises forced (resurrected)
        # deliveries on both engines.
        factory = lambda: RandomFaultAdversary(FaultProfile(loss=0.5))
        assert_equivalent(factory, seed, fairness_patience=4)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_bare_random(self, seed):
        factory = lambda: RandomFaultAdversary(
            FaultProfile(loss=0.1, duplicate=0.15, reorder=0.1)
        )
        assert_equivalent(factory, seed, enforce_fairness=False)


class TestGenericAdversaries:
    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_stalling_under_enforcer(self, seed):
        assert_equivalent(StallingAdversary, seed, messages=8)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_delayed_fifo(self, seed):
        assert_equivalent(lambda: DelayedFifoAdversary(delay_turns=3), seed)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_reorder(self, seed):
        assert_equivalent(lambda: ReorderAdversary(window=8), seed)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_duplicate_flood(self, seed):
        assert_equivalent(
            lambda: DuplicateFloodAdversary(flood=0.4), seed, messages=10
        )


class TestFaultPlans:
    """Scripted drop/dup/stall/crash/corrupt plans (the zoo of ISSUE 7)."""

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_drop_window(self, seed):
        plan = FaultPlan.of(
            DropWindow(start=5, end=25),
            DropWindow(start=40, end=55, channel="T->R"),
        )
        assert_equivalent(ReliableAdversary, seed, fault_plan=plan)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_duplicate_burst(self, seed):
        plan = FaultPlan.of(
            DuplicateBurst(step=12, copies=3, spacing=1),
            DuplicateBurst(step=30, copies=2, spacing=7),
        )
        assert_equivalent(ReliableAdversary, seed, fault_plan=plan)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_stall_window(self, seed):
        plan = FaultPlan.of(StallWindow(start=10, end=80))
        assert_equivalent(
            ReliableAdversary, seed, fault_plan=plan, fairness_patience=16
        )

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_crashes(self, seed):
        plan = FaultPlan.of(
            CrashAt(step=15, station="T"),
            CrashAt(step=45, station="R"),
        )
        assert_equivalent(ReliableAdversary, seed, fault_plan=plan)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_corrupt_scramble_and_wipe(self, seed):
        plan = FaultPlan.of(
            CorruptAt(step=12, station="T", seed=401),
            CorruptAt(step=28, station="R", seed=402),
            CorruptAt(step=44, station="T", seed=403, mode="wipe"),
            CorruptAt(step=60, station="R", fields=("tau", "rho"), seed=404),
        )
        assert_equivalent(
            ReliableAdversary, seed, fault_plan=plan, stabilization=True
        )

    def test_combined_plan_over_lossy_inner(self):
        plan = FaultPlan.of(
            DropWindow(start=8, end=20),
            CrashAt(step=33, station="T"),
            DuplicateBurst(step=50, copies=2, spacing=3),
            StallWindow(start=70, end=90),
            CorruptAt(step=110, station="R", seed=77),
        )
        factory = lambda: RandomFaultAdversary(
            FaultProfile(loss=0.1, duplicate=0.05)
        )
        assert_equivalent(factory, 21, fault_plan=plan, stabilization=True)


class TestStateCorruption:
    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_random_corruption_with_stabilization(self, seed):
        factory = lambda: StateCorruptionAdversary(rate_t=0.01, rate_r=0.01)
        assert_equivalent(
            factory, seed, stabilization=True, max_steps=30_000
        )

    def test_wipe_mode(self):
        factory = lambda: StateCorruptionAdversary(
            rate_t=0.005, rate_r=0.005, wipe=True
        )
        assert_equivalent(factory, 2, stabilization=True, max_steps=30_000)


def streaming_snapshot(outcome):
    """Observables available under ``retain="none"`` (no stored events)."""
    result = outcome.result
    link = result.link
    t, r = link.transmitter, link.receiver
    trace = result.trace
    checks = result.checks
    return {
        "counts": (trace.packets_sent(), trace.packets_delivered(),
                   trace.retries(), trace.ok_count(), trace.crash_count()),
        "total_events": trace.total_events,
        "events_seen": checks.events_seen,
        "completed": result.completed,
        "steps": result.steps,
        "metrics": metrics_key(result.metrics),
        "safety": safety_key(outcome.safety),
        "liveness": outcome.liveness_passed,
        "transmitter": repr(t),
        "receiver": repr(r),
        "t_bits_drawn": bits_drawn(t),
        "r_bits_drawn": bits_drawn(r),
        "t_stats": vars(t.stats).copy(),
        "r_stats": vars(r.stats).copy(),
    }


class TestStreamingFastPath:
    """retain="none" runs take the kernel's direct checker-dispatch path;
    the settled trace/checker counters must match the object engine's."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fair_reliable_none_retention(self, seed):
        obj = streaming_snapshot(
            run_once(build_spec(ReliableAdversary, "object", retain="none"),
                     seed)
        )
        ker = streaming_snapshot(
            run_once(build_spec(ReliableAdversary, "kernel", retain="none"),
                     seed)
        )
        assert obj == ker

    @pytest.mark.parametrize("seed", SEEDS)
    def test_lossy_none_retention(self, seed):
        factory = lambda: RandomFaultAdversary(
            FaultProfile(loss=0.2, duplicate=0.1, crash_t=0.001,
                         crash_r=0.001)
        )
        obj = streaming_snapshot(
            run_once(build_spec(factory, "object", retain="none",
                                max_steps=30_000), seed)
        )
        ker = streaming_snapshot(
            run_once(build_spec(factory, "kernel", retain="none",
                                max_steps=30_000), seed)
        )
        assert obj == ker

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_bare_random_none_retention(self, seed):
        factory = lambda: RandomFaultAdversary(
            FaultProfile(loss=0.1, reorder=0.1, duplicate=0.05)
        )
        obj = streaming_snapshot(
            run_once(build_spec(factory, "object", retain="none",
                                enforce_fairness=False), seed)
        )
        ker = streaming_snapshot(
            run_once(build_spec(factory, "kernel", retain="none",
                                enforce_fairness=False), seed)
        )
        assert obj == ker


@pytest.fixture
def fast_modes(monkeypatch):
    """Records the adversary mode of every ``_run_fast`` entry."""
    modes = []
    real = kernel_engine._run_fast

    def spy(sim, mode):
        modes.append(mode)
        return real(sim, mode)

    monkeypatch.setattr(kernel_engine, "_run_fast", spy)
    return modes


class TestDispatch:
    """The kernel's one loop, ``_run_fast``, runs the stock adversaries;
    every other adversary runs the object loop under ``engine="kernel"``."""

    @pytest.mark.parametrize("enforce_fairness", [True, False])
    @pytest.mark.parametrize(
        "factory",
        [
            ReliableAdversary,
            lambda: RandomFaultAdversary(FaultProfile(loss=0.1)),
        ],
        ids=["reliable", "random"],
    )
    def test_stock_adversaries_enter_fast_loop(
        self, fast_modes, factory, enforce_fairness
    ):
        run_once(
            build_spec(factory, "kernel", enforce_fairness=enforce_fairness,
                       messages=5),
            3,
        )
        assert len(fast_modes) == 1

    def test_state_corruption_runs_object_loop(self, fast_modes):
        factory = lambda: StateCorruptionAdversary(rate_t=0.01, rate_r=0.01)
        assert_equivalent(factory, 4, stabilization=True, max_steps=30_000)
        assert fast_modes == []

    def test_fault_plan_runs_object_loop(self, fast_modes):
        plan = FaultPlan.of(
            DropWindow(start=5, end=25),
            CrashAt(step=40, station="R"),
        )
        assert_equivalent(ReliableAdversary, 4, fault_plan=plan)
        assert fast_modes == []

    def test_recycled_session_alternates_loops(self, fast_modes):
        # A campaign session recycles one simulator: a stock run parks
        # flat channel stores, then a fault-plan run on the same
        # simulator must still match a fresh object-engine run.
        plan = FaultPlan.of(
            DropWindow(start=3, end=12),
            CrashAt(step=20, station="T"),
        )
        session = RunSession(build_spec(ReliableAdversary, "kernel"))
        session.run(5)
        planned = build_spec(ReliableAdversary, "kernel", fault_plan=plan)
        recycled = snapshot(session.run(6, planned.adversary_factory))
        fresh = snapshot(run_once(
            build_spec(ReliableAdversary, "object", fault_plan=plan), 6
        ))
        assert len(fast_modes) == 1
        assert recycled == fresh

    @pytest.mark.parametrize(
        "factory",
        [
            ReliableAdversary,
            lambda: RandomFaultAdversary(FaultProfile(loss=0.2)),
        ],
        ids=["reliable", "lossy"],
    )
    @pytest.mark.parametrize(
        "make_link",
        [make_abp_link, make_stop_and_wait_link, make_nonvolatile_bit_link],
        ids=["abp", "stop-and-wait", "nonvolatile-bit"],
    )
    def test_baseline_stations_run_object_loop(
        self, fast_modes, make_link, factory
    ):
        # The kernel's flat state mirrors the paper's Transmitter and
        # Receiver only; other stations must fall back, not crash.
        assert_equivalent(
            factory, 2, link_factory=lambda seed: make_link(), messages=15
        )
        assert fast_modes == []


#: The fault mix of the link-faulty benchmark workload.
LINK_FAULTY = FaultProfile(
    loss=0.2, duplicate=0.05, reorder=0.1, crash_t=0.002, crash_r=0.002
)


class TestDefaultEngine:
    """``"kernel"`` is the default engine on every entry point; the
    object loop is the reference it must match."""

    def test_library_defaults(self):
        assert RunSpec.default().engine == "kernel"
        assert FabricSpec().engine == "kernel"
        engine = inspect.signature(Simulator).parameters["engine"]
        assert engine.default == "kernel"

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate"],
            ["campaign"],
            ["shrink", "--fault-plan", "plan.json", "--seed", "1"],
        ],
        ids=["simulate", "campaign", "shrink"],
    )
    def test_cli_defaults(self, argv):
        assert build_parser().parse_args(argv).engine == "kernel"

    @pytest.mark.parametrize("seed", [0, 3])
    def test_default_run_matches_object_engine(self, fast_modes, seed):
        factory = lambda: RandomFaultAdversary(LINK_FAULTY)
        default = run_once(
            RunSpec.default(adversary_factory=factory, messages=50), seed
        )
        assert len(fast_modes) == 1
        reference = run_once(
            RunSpec.default(
                adversary_factory=factory, messages=50, engine="object"
            ),
            seed,
        )
        assert snapshot(default) == snapshot(reference)


fault_profiles = st.builds(
    FaultProfile,
    loss=st.floats(min_value=0.0, max_value=0.5),
    duplicate=st.floats(min_value=0.0, max_value=0.3),
    reorder=st.floats(min_value=0.0, max_value=0.3),
    crash_t=st.floats(min_value=0.0, max_value=0.01),
    crash_r=st.floats(min_value=0.0, max_value=0.01),
)


@settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    profile=fault_profiles,
    enforce_fairness=st.booleans(),
    fairness_patience=st.integers(min_value=1, max_value=64),
    retain=st.sampled_from(["full", "none"]),
    messages=st.integers(min_value=0, max_value=12),
    max_steps=st.integers(min_value=1, max_value=20_000),
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
)
def test_engines_agree_on_drawn_runs(
    profile, enforce_fairness, fairness_patience, retain, messages,
    max_steps, seed,
):
    """Fuzzed differential over ``_run_fast``: drawn fault profiles,
    fairness, retention, stream length and step budget."""
    factory = lambda: RandomFaultAdversary(profile)
    overrides = dict(
        enforce_fairness=enforce_fairness,
        fairness_patience=fairness_patience,
        retain=retain,
        messages=messages,
        max_steps=max_steps,
    )
    if retain == "full":
        assert_equivalent(factory, seed, **overrides)
        return
    obj = streaming_snapshot(
        run_once(build_spec(factory, "object", **overrides), seed)
    )
    ker = streaming_snapshot(
        run_once(build_spec(factory, "kernel", **overrides), seed)
    )
    assert obj == ker


class TestVeneerSync:
    """The kernel must leave the object graph exactly as the object engine
    does — a second (object-engine) inspection pass sees the same world."""

    def test_channel_state_synced(self):
        spec_obj = build_spec(ReliableAdversary, "object")
        spec_ker = build_spec(ReliableAdversary, "kernel")
        out_obj = run_once(spec_obj, 11)
        out_ker = run_once(spec_ker, 11)
        sim_channels = {}
        for label, outcome in (("object", out_obj), ("kernel", out_ker)):
            link = outcome.result.link
            sim_channels[label] = (
                link.transmitter.storage_bits,
                link.receiver.storage_bits,
                link.total_storage_bits(),
            )
        assert sim_channels["object"] == sim_channels["kernel"]

    def test_kernel_engine_rejected_values(self):
        with pytest.raises(ValueError):
            run_once(build_spec(ReliableAdversary, "vectorized"), 0)
        run_once(build_spec(ReliableAdversary, "kernel"), 0)

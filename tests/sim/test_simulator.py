"""Integration-grade unit tests for the Simulator harness."""

from __future__ import annotations

import pytest

from repro.adversary.benign import ReliableAdversary
from repro.adversary.crash import ScheduledCrashAdversary
from repro.adversary.fairness import FairnessEnforcer, StallingAdversary
from repro.adversary.random_faults import FaultProfile, RandomFaultAdversary
from repro.checkers.axioms import check_axiom1, check_axiom2, check_axiom3_bounded
from repro.checkers.safety import check_all_safety
from repro.core.events import Ok, ReceiveMsg, SendMsg
from repro.core.protocol import make_data_link
from repro.sim.simulator import Simulator
from repro.sim.workload import SequentialWorkload


def run(adversary, messages=10, seed=1, link_seed=1, **kwargs):
    link = make_data_link(epsilon=2.0 ** -16, seed=link_seed)
    sim = Simulator(
        link, adversary, SequentialWorkload(messages), seed=seed, **kwargs
    )
    return sim.run()


class TestFaultFreeRuns:
    def test_completes(self):
        result = run(ReliableAdversary())
        assert result.completed
        assert result.all_messages_ok
        assert result.metrics.messages_ok == 10

    def test_in_order_delivery(self):
        result = run(ReliableAdversary())
        assert result.trace.received_messages() == result.trace.sent_messages()

    def test_event_interleaving_respects_axioms(self):
        result = run(ReliableAdversary())
        assert check_axiom1(result.trace).passed
        assert check_axiom2(result.trace).passed
        assert check_axiom3_bounded(result.trace, window=64).passed

    def test_packet_economy(self):
        # Steady state is two packets per message; the cold start adds a
        # few polls, so the average sits between 2 and 4.
        result = run(ReliableAdversary(), messages=50)
        assert 2.0 <= result.metrics.per_message_packets <= 4.0

    def test_deterministic_given_seeds(self):
        a = run(ReliableAdversary(), seed=3, link_seed=5)
        b = run(ReliableAdversary(), seed=3, link_seed=5)
        assert a.steps == b.steps
        assert a.trace.events == b.trace.events


class TestFaultyRuns:
    def test_loss_recovered_by_retransmission(self):
        adv = RandomFaultAdversary(FaultProfile(loss=0.4))
        result = run(adv, messages=20, seed=2)
        assert result.completed
        assert result.all_messages_ok

    def test_duplication_and_reorder_safe(self):
        adv = RandomFaultAdversary(FaultProfile(duplicate=0.4, reorder=0.6))
        result = run(adv, messages=20, seed=3)
        assert result.completed
        assert check_all_safety(result.trace).passed

    def test_heavy_everything(self):
        adv = RandomFaultAdversary(
            FaultProfile(loss=0.3, duplicate=0.3, reorder=0.5, crash_t=0.003, crash_r=0.003)
        )
        result = run(adv, messages=20, seed=4, max_steps=200_000)
        assert result.completed
        assert check_all_safety(result.trace).passed


class TestCrashHandling:
    def test_scheduled_transmitter_crash(self):
        adv = ScheduledCrashAdversary([(10, "T")])
        result = run(adv, messages=10, seed=5)
        assert result.completed
        assert result.metrics.crashes_t == 1
        # At most one message may be lost to the crash.
        assert result.metrics.messages_ok >= 9
        assert check_all_safety(result.trace).passed

    def test_scheduled_receiver_crash(self):
        adv = ScheduledCrashAdversary([(10, "R")])
        result = run(adv, messages=10, seed=6)
        assert result.completed
        assert result.metrics.crashes_r == 1
        assert check_all_safety(result.trace).passed

    def test_crash_storm_trace_consistency(self):
        adv = ScheduledCrashAdversary([(i, "T" if i % 10 else "R") for i in range(5, 60, 5)])
        result = run(adv, messages=10, seed=7, max_steps=100_000)
        report = check_all_safety(result.trace)
        assert report.causality.passed
        assert report.passed


class TestStallingAndFairness:
    def test_stalling_adversary_cannot_block_forever(self):
        result = run(StallingAdversary(), messages=5, seed=8, fairness_patience=8)
        assert result.completed

    def test_unenforced_stalling_blocks(self):
        result = run(
            StallingAdversary(),
            messages=1,
            seed=9,
            enforce_fairness=False,
            max_steps=2_000,
        )
        assert not result.completed
        assert result.metrics.messages_ok == 0

    def test_prewrapped_enforcer_not_double_wrapped(self):
        link = make_data_link(seed=1)
        wrapped = FairnessEnforcer(StallingAdversary(), patience=4)
        sim = Simulator(link, wrapped, SequentialWorkload(2), seed=1)
        result = sim.run()
        assert result.adversary is wrapped
        assert result.completed


class TestHarnessContract:
    """The object loop's own contract.  ``"kernel"`` is the default
    engine, so the runs the kernel would take pin ``engine="object"``:
    the loop is the reference the differential suites compare the
    kernel against."""

    def test_max_steps_bounds_run(self):
        result = run(StallingAdversary(), messages=1, enforce_fairness=False, max_steps=50)
        assert result.steps == 50

    def test_retry_cadence(self):
        result = run(ReliableAdversary(), messages=2, retry_every=2, engine="object")
        assert result.trace.retries() >= result.steps // 2 - 1

    def test_validation(self):
        link = make_data_link(seed=1)
        with pytest.raises(ValueError):
            Simulator(link, ReliableAdversary(), SequentialWorkload(1), retry_every=0)
        with pytest.raises(ValueError):
            Simulator(link, ReliableAdversary(), SequentialWorkload(1), max_steps=0)

    def test_empty_workload_finishes_immediately(self):
        link = make_data_link(seed=1)
        sim = Simulator(
            link, ReliableAdversary(), SequentialWorkload(0), seed=1,
            engine="object",
        )
        result = sim.run()
        assert result.completed
        assert result.metrics.messages_submitted == 0
        # Zero messages, zero failures: vacuously ok (regression — this
        # used to demand messages_submitted > 0 and report False).
        assert result.all_messages_ok

    def test_trace_event_shape(self):
        result = run(ReliableAdversary(), messages=3, engine="object")
        sends = result.trace.of_type(SendMsg)
        oks = result.trace.of_type(Ok)
        deliveries = result.trace.of_type(ReceiveMsg)
        assert len(sends) == len(oks) == len(deliveries) == 3

    def test_metrics_storage_samples_collected(self):
        result = run(ReliableAdversary(), messages=3, engine="object")
        assert len(result.metrics.storage_samples) == result.steps
        assert result.metrics.storage_peak_bits >= max(result.metrics.storage_samples[:1] or [0])

    def test_step_matches_inlined_run_body(self):
        # run() inlines step() for speed; driving step() by hand must
        # reproduce the object loop's execution event for event.
        def build():
            link = make_data_link(epsilon=2.0 ** -16, seed=1)
            adversary = RandomFaultAdversary(FaultProfile(
                loss=0.3, duplicate=0.2, reorder=0.3, crash_t=0.005, crash_r=0.005,
            ))
            return Simulator(
                link, adversary, SequentialWorkload(20), seed=4, engine="object"
            )

        result = build().run()
        stepped = build()
        while not stepped.finished:
            stepped.step()
        assert stepped.steps_taken == result.steps
        assert list(stepped.trace.events) == list(result.trace.events)

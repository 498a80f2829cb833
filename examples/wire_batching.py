#!/usr/bin/env python3
"""The batched wire: drain/flush datagram I/O under a live scenario.

On a zero-latency loopback the live stack's throughput ceiling is not
the protocol — it is the wire mechanics: one event-loop wakeup and one
`bytes` allocation per datagram.  The socket layer of `repro.live.wire`
(docs/PROTOCOL.md §15) drains every queued datagram per wakeup through
ctypes `recvmmsg` (or a portable `recv_into` loop), flushes sends in
`sendmmsg` batches, and encodes outbound packets into pooled buffers.

This example runs one 4-lane scenario over a lossy, duplicating wire and
prints what the wire did: datagrams per drain chunk and per flush, and
the buffer pool's accounting — every pooled buffer must be back home at
teardown, and the delivered stream must be the submitted payloads in
order (the wire moves datagrams, never the protocol).

Run:  python examples/wire_batching.py
"""

from __future__ import annotations

from repro.live import BackoffPolicy, LinkProfile, LiveScenario, run_live_scenario
from repro.live.wire import mmsg_available

POLL = BackoffPolicy(base=0.004, factor=2.0, cap=0.05, jitter=0.25)


def main() -> None:
    print("== 4 lanes over the batched wire, lossy and duplicating ==\n")
    print(f"   (recvmmsg/sendmmsg fast path available: {mmsg_available()})\n")
    report = run_live_scenario(LiveScenario(
        messages=200,
        seed=11,
        lanes=4,
        profile=LinkProfile(drop=0.04, duplicate=0.03, delay=0.001),
        poll=POLL,
        budget=45.0,
        give_up_idle=5.0,
        label="wire-demo",
    ))
    stats = report.wire_stats
    print(f"  status={report.status.value}  oks={report.oks}"
          f"  safety={'pass' if report.safety.passed else 'FAIL'}"
          f"  liveness={'pass' if report.liveness_passed else 'FAIL'}")
    print(f"  received {stats.datagrams_received} datagrams in "
          f"{stats.recv_batches} drain chunks "
          f"({stats.datagrams_received / max(1, stats.recv_batches):.2f} per chunk)")
    print(f"  sent {stats.datagrams_sent} datagrams in "
          f"{stats.send_batches} flushes "
          f"({stats.datagrams_sent / max(1, stats.send_batches):.2f} per flush)"
          + ("  [mmsg]" if stats.mmsg else ""))
    print(f"  buffer pool: {report.pool_allocated} allocated, "
          f"high-water {report.pool_high_water}, "
          f"{report.pool_outstanding} outstanding")
    expected = [b"live-%05d" % i for i in range(report.scenario.messages)]
    assert report.ok, report.reason
    assert report.delivered_stream == expected
    assert report.pool_outstanding == 0
    print("\n  delivered stream in order; all pooled buffers returned\n")


if __name__ == "__main__":
    main()

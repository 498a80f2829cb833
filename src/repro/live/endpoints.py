"""Live station endpoints: the TM and RM automata behind real UDP sockets.

The core automata (:class:`~repro.core.transmitter.Transmitter`,
:class:`~repro.core.receiver.Receiver`) are pure state machines — the
simulator drives them with scheduled actions, and this module drives the
*same objects* with datagrams and timers instead.  Each endpoint:

* binds an ephemeral loopback UDP socket and exchanges the canonical
  byte encoding of :mod:`repro.core.packets` with the chaos proxy;
* mirrors every externally visible action (``send_msg``, ``OK``,
  ``receive_msg``, ``crash``, packet sends/deliveries, RETRY) into a
  :class:`~repro.checkers.live.LiveEventLog`, so the Section 2.6 streaming
  verdicts apply to the live run unchanged;
* survives **crash-amnesia**: :meth:`crash` kills the endpoint's tasks and
  wipes every bit of volatile state — the automaton's memory via its own
  ``crash()`` transition (the paper's model: memory dies, the entropy
  source does not) *and* the harness-side volatile state (backoff
  schedule, in-flight bookkeeping).  The station stays dead for
  ``restart_delay`` seconds (datagrams arriving meanwhile are lost, as
  they would be at a down host), then cold-restarts.

Malformed datagrams are rejected by the codec and counted, never raised:
a live port is exposed to whatever bytes arrive, and the causality axiom
that lets the simulator treat decode failures as bugs does not protect a
real socket.

The transmitter's workload is a sequence of *slots*.  A slot whose
handshake dies with a transmitter crash is re-queued under a fresh attempt
suffix — a **distinct** message value, keeping Axiom 2 (no value is ever
sent twice) while still getting every logical slot delivered.  This is the
live analogue of a higher layer resubmitting lost work under a new id.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Callable, Deque, List, Optional, Sequence, Set, Tuple

from repro.checkers.live import LiveEventLog
from repro.core.events import (
    CRASH_R,
    CRASH_T,
    OK,
    RETRY,
    ChannelId,
    Corruption,
    EmitOk,
    EmitPacket,
    EmitReceiveMsg,
    StationOutput,
    make_pkt_delivered,
    make_pkt_sent,
    make_receive_msg,
    make_send_msg,
)
from repro.core.exceptions import CodecError
from repro.core.packets import (
    DataPacket,
    PollEncoder,
    PollPacket,
    decode_packet,
    # Unused here, but kept as a module attribute: the benchmark's codec
    # trace points wrap ``endpoints.encode_packet`` by name.
    encode_packet,  # noqa: F401
    encode_packet_into,
    packet_wire_bytes,
)
from repro.core.random_source import RandomSource
from repro.core.receiver import Receiver
from repro.core.transmitter import Transmitter
from repro.live.backoff import AdaptiveBackoff
from repro.live.wire import BatchedDatagramIO, BufferPool

__all__ = ["TransmitterEndpoint", "ReceiverEndpoint"]

Address = Tuple[str, int]


class _SocketBase:
    """One batched UDP socket plus audited timer bookkeeping.

    Every volatile timer an endpoint schedules goes through
    :meth:`_call_later` and is tracked until it fires or is cancelled;
    :meth:`_cancel_timers` sweeps them all.  This is the structural fix for
    stale-callback bugs: a backoff/retry callback scheduled before a crash
    must never fire into the automaton that cold-restarts afterwards, and
    teardown must leave nothing pending on the caller's loop.
    """

    def __init__(
        self,
        proxy_addr: Address,
        pool: Optional[BufferPool] = None,
    ) -> None:
        self.proxy_addr = proxy_addr
        self._io = BatchedDatagramIO(self._on_datagram, pool=pool)
        self._timers: Set[asyncio.TimerHandle] = set()
        self._closed = False

    async def start(self) -> None:
        await self._io.open()

    @property
    def local_address(self) -> Address:
        return self._io.local_address

    @property
    def wire_ios(self) -> "List[BatchedDatagramIO]":
        """The batched socket behind this endpoint."""
        return [self._io]

    @property
    def pending_timer_count(self) -> int:
        """Outstanding scheduled callbacks (exposed for hygiene tests)."""
        return len(self._timers)

    def close(self) -> None:
        self._closed = True
        self._cancel_timers()
        self._io.close()

    # -- timer hygiene -----------------------------------------------------------

    def _call_later(self, delay: float, callback: Callable[[], None]):
        """Schedule a tracked one-shot callback (auto-untracked on fire)."""
        handle: Optional[asyncio.TimerHandle] = None

        def _fire() -> None:
            self._timers.discard(handle)
            callback()

        handle = asyncio.get_running_loop().call_later(delay, _fire)
        self._timers.add(handle)
        return handle

    def _cancel_timer(self, handle) -> None:
        if handle is not None:
            handle.cancel()
            self._timers.discard(handle)

    def _cancel_timers(self) -> None:
        for handle in self._timers:
            handle.cancel()
        self._timers.clear()

    def _send_wire(self, packet, prefix: bytes = b"", encoder=None) -> None:
        """Encode ``packet`` (behind ``prefix``) into a pool buffer and queue it.

        ``encoder``, when given, is a :class:`PollEncoder` whose output
        already *includes* ``prefix`` — the argument then only sizes the
        pooled buffer.  No intermediate ``bytes`` is built.
        """
        if self._closed:
            return
        io = self._io
        buf = io.pool.acquire(len(prefix) + packet_wire_bytes(packet))
        if encoder is not None:
            end = encoder.encode_into(buf, 0, packet)
        else:
            if prefix:
                buf[: len(prefix)] = prefix
            end = encode_packet_into(buf, len(prefix), packet)
        io.send_pooled(buf, end, self.proxy_addr)

    def _on_datagram(self, data) -> None:
        raise NotImplementedError


class _EndpointBase(_SocketBase):
    """Crash-amnesia scaffolding shared by both single-lane stations."""

    #: ChannelId this station sends on (the other one is its inbound side).
    outbound: ChannelId
    inbound: ChannelId

    def __init__(
        self,
        log: LiveEventLog,
        proxy_addr: Address,
        restart_delay: float = 0.02,
        pool: Optional[BufferPool] = None,
    ) -> None:
        super().__init__(proxy_addr, pool=pool)
        self.log = log
        self.restart_delay = restart_delay
        self.dead = False
        self.crashes = 0
        self.corruptions = 0
        self.malformed = 0
        self.dropped_while_dead = 0
        self._out_ids = 0
        self._in_ids = 0

    # -- wire I/O ---------------------------------------------------------------

    def _wire_encoder(self, packet):
        """Cached-prefix encoder for this packet, or None for plain encode."""
        return None

    def _send_packet(self, packet) -> None:
        self._out_ids += 1
        # Packet ids on a live wire are log-local bookkeeping: datagrams
        # carry no id field, so sends and deliveries number independently.
        # The default monitors only ever count these events.
        self.log.record(
            make_pkt_sent(self.outbound, self._out_ids, packet.wire_length_bits)
        )
        self._send_wire(packet, encoder=self._wire_encoder(packet))

    def _on_datagram(self, data) -> None:
        if self._closed:
            return
        if self.dead:
            self.dropped_while_dead += 1
            return
        try:
            packet = decode_packet(data)
        except CodecError:
            self.malformed += 1
            return
        if not isinstance(packet, self._expected_packet):
            self.malformed += 1
            return
        self._in_ids += 1
        self.log.record(make_pkt_delivered(self.inbound, self._in_ids))
        self._handle_packet(packet)

    # -- crash-amnesia -----------------------------------------------------------

    def crash(self) -> None:
        """Kill the station mid-whatever and schedule a cold restart.

        All volatile state dies — including every scheduled backoff/retry
        callback, which would otherwise fire into the restarted automaton;
        the entropy source and the socket (the "hardware") survive, as in
        the paper's crash model.
        """
        if self.dead or self._closed:
            return
        self.dead = True
        self.crashes += 1
        self._cancel_timers()
        self._wipe_volatile_state()
        self._call_later(self.restart_delay, self._restart)

    def _restart(self) -> None:
        if self._closed:
            return
        self.dead = False
        self._on_restarted()

    # subclass hooks
    _expected_packet: type = object

    def _handle_packet(self, packet) -> None:
        raise NotImplementedError

    def _wipe_volatile_state(self) -> None:
        raise NotImplementedError

    def _on_restarted(self) -> None:
        raise NotImplementedError


class _Slot:
    """One logical workload message; ``attempt`` disambiguates resubmissions."""

    __slots__ = ("prefix", "attempt")

    def __init__(self, prefix: bytes, attempt: int = 0) -> None:
        self.prefix = prefix
        self.attempt = attempt

    def value(self) -> bytes:
        if self.attempt == 0:
            return self.prefix
        return self.prefix + b"+r%d" % self.attempt


class TransmitterEndpoint(_EndpointBase):
    """The TM behind a socket: drains a workload of slots, one OK at a time.

    ``on_ok`` fires per acknowledged slot, ``on_done`` once when every slot
    has been OK'd — the scenario supervisor's completion signal.
    """

    outbound = ChannelId.T_TO_R
    inbound = ChannelId.R_TO_T
    _expected_packet = PollPacket

    def __init__(
        self,
        transmitter: Transmitter,
        log: LiveEventLog,
        proxy_addr: Address,
        payloads: Sequence[bytes],
        on_ok: Optional[Callable[[], None]] = None,
        on_done: Optional[Callable[[], None]] = None,
        restart_delay: float = 0.02,
        pool: Optional[BufferPool] = None,
    ) -> None:
        super().__init__(log, proxy_addr, restart_delay, pool=pool)
        self.tm = transmitter
        self.queue: Deque[_Slot] = deque(_Slot(p) for p in payloads)
        self.total_slots = len(self.queue)
        self.current: Optional[_Slot] = None
        self.oks = 0
        self.resubmissions = 0
        self._on_ok = on_ok
        self._on_done = on_done

    async def start(self) -> None:
        await super().start()
        self.maybe_send_next()

    @property
    def all_delivered(self) -> bool:
        return self.oks >= self.total_slots

    def maybe_send_next(self) -> None:
        """Submit the next slot if the TM is idle (Axiom 1 discipline)."""
        if self.dead or self._closed or self.current is not None:
            return
        if self.tm.busy or not self.queue:
            return
        slot = self.queue.popleft()
        self.current = slot
        value = slot.value()
        self.log.record(make_send_msg(value))
        # A freshly(-re)started TM holds no receiver challenge and opens
        # silently; the RM's polls will draw the data packet out of it.
        self._dispatch(self.tm.send_msg(value))

    def _dispatch(self, outputs: List[StationOutput]) -> None:
        for output in outputs:
            if isinstance(output, EmitPacket):
                self._send_packet(output.packet)
            elif isinstance(output, EmitOk):
                self.log.record(OK)
                self.oks += 1
                self.current = None
                if self._on_ok is not None:
                    self._on_ok()
                if self.all_delivered and not self.queue:
                    if self._on_done is not None:
                        self._on_done()
                else:
                    self.maybe_send_next()

    def _handle_packet(self, packet: PollPacket) -> None:
        self._dispatch(self.tm.on_receive_pkt(packet))

    def corrupt(self, seed: int, fields: Optional[Sequence[str]] = None) -> Tuple[str, ...]:
        """Scramble the live TM's volatile state in place (no dead window).

        Unlike :meth:`crash`, the station keeps running on whatever garbage
        the scramble produced — the self-stabilization fault model.  If the
        scramble dropped the in-flight message (``busy`` flipped off), the
        current slot is re-queued under a fresh attempt suffix exactly as a
        crash would, because the payload bits are unrecoverable either way.
        """
        if self.dead or self._closed:
            return ()
        scrambled = self.tm.corrupt(RandomSource(seed), fields)
        self.corruptions += 1
        self.log.record(Corruption(station="T", fields=scrambled, seed=seed))
        if not self.tm.busy and self.current is not None:
            slot = self.current
            self.current = None
            self.resubmissions += 1
            self.queue.appendleft(_Slot(slot.prefix, slot.attempt + 1))
        self.maybe_send_next()
        return scrambled

    def _wipe_volatile_state(self) -> None:
        self.log.record(CRASH_T)
        self.tm.crash()
        if self.current is not None:
            # The in-flight message died with the memory.  Re-queue the slot
            # under a fresh attempt suffix: a distinct value (Axiom 2), same
            # logical payload, delivered on a later handshake.
            slot = self.current
            self.current = None
            self.resubmissions += 1
            self.queue.appendleft(_Slot(slot.prefix, slot.attempt + 1))

    def _on_restarted(self) -> None:
        self.maybe_send_next()


class ReceiverEndpoint(_EndpointBase):
    """The RM behind a socket: a poll loop paced by adaptive backoff.

    The RETRY action becomes a chain of tracked one-shot timers: poll,
    schedule the next poll ``next_delay()`` later, repeat.  Progress (a
    delivery or a nonce update) resets the backoff and triggers an
    immediate acknowledging poll, which is what keeps handshake latency
    near the base delay on a healthy link while a congested or partitioned
    one decays toward the cap.  Because the chain runs on the audited
    :meth:`_call_later`, a crash or teardown cancels the pending poll
    outright — no stale callback ever polls on behalf of a wiped automaton.

    Polls between two progress events differ only in their retry counter,
    so the wire bytes come from a :class:`PollEncoder` prefix cache instead
    of a full re-encode per resend.
    """

    outbound = ChannelId.R_TO_T
    inbound = ChannelId.T_TO_R
    _expected_packet = DataPacket

    def __init__(
        self,
        receiver: Receiver,
        log: LiveEventLog,
        proxy_addr: Address,
        backoff: AdaptiveBackoff,
        on_progress: Optional[Callable[[], None]] = None,
        on_delivery: Optional[Callable[[bytes], None]] = None,
        restart_delay: float = 0.02,
        pool: Optional[BufferPool] = None,
    ) -> None:
        super().__init__(log, proxy_addr, restart_delay, pool=pool)
        self.rm = receiver
        self.backoff = backoff
        self.deliveries = 0
        self.delivered: List[bytes] = []
        self._on_progress = on_progress
        self._on_delivery = on_delivery
        self._poll_handle: Optional[asyncio.TimerHandle] = None
        self._poll_encoder = PollEncoder()

    async def start(self) -> None:
        await super().start()
        self._poll_tick()

    def _wire_encoder(self, packet):
        if type(packet) is PollPacket:
            return self._poll_encoder
        return None

    @property
    def polls_without_progress(self) -> int:
        """How far the backoff has decayed (the give-up policy's input)."""
        return self.backoff.attempts_without_progress

    def _poll_tick(self) -> None:
        self._poll_handle = None
        if self.dead or self._closed:
            return
        self._send_poll()
        self._poll_handle = self._call_later(
            self.backoff.next_delay(), self._poll_tick
        )

    def _send_poll(self) -> None:
        if self.dead or self._closed:
            return
        self.log.record(RETRY)
        for output in self.rm.retry():
            if isinstance(output, EmitPacket):
                self._send_packet(output.packet)

    def _handle_packet(self, packet: DataPacket) -> None:
        tau_before = self.rm.tau
        outputs = self.rm.on_receive_pkt(packet)
        progressed = False
        for output in outputs:
            if isinstance(output, EmitReceiveMsg):
                self.log.record(make_receive_msg(output.message))
                self.deliveries += 1
                self.delivered.append(output.message)
                progressed = True
                if self._on_delivery is not None:
                    self._on_delivery(output.message)
        if not progressed and self.rm.tau != tau_before:
            progressed = True  # same handshake, the TM extended its nonce
        if progressed:
            self.backoff.note_progress()
            if self._on_progress is not None:
                self._on_progress()
            # Acknowledge immediately instead of waiting out the timer —
            # the poll carries the new (rho, tau) the TM needs for its OK.
            # Restart the chain so the next timed poll sits one reset
            # backoff delay after this ack, not wherever the old timer was.
            self._cancel_timer(self._poll_handle)
            self._poll_handle = None
            self._poll_tick()

    def corrupt(self, seed: int, fields: Optional[Sequence[str]] = None) -> Tuple[str, ...]:
        """Scramble the live RM's volatile state in place (no dead window).

        The poll chain keeps running: the very next poll carries the
        scrambled (rho, tau), and the handshake reconverges because the TM
        always echoes the challenge of the poll it answers.
        """
        if self.dead or self._closed:
            return ()
        scrambled = self.rm.corrupt(RandomSource(seed), fields)
        self.corruptions += 1
        self.log.record(Corruption(station="R", fields=scrambled, seed=seed))
        return scrambled

    def _wipe_volatile_state(self) -> None:
        # crash() has already swept every tracked timer, including the
        # pending poll; drop the dangling reference.
        self._poll_handle = None
        self.log.record(CRASH_R)
        self.rm.crash()
        self.backoff.reset()

    def _on_restarted(self) -> None:
        self._poll_tick()

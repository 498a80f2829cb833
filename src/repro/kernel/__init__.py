"""Table-driven step kernel: a flat, slot-indexed execution engine.

The kernel executes the same ``D(A, ADV)`` composition as the object
engine in :mod:`repro.sim.simulator`, but in one flat loop with all
per-step state flattened out of the station/channel/adversary objects into
plain ints and preallocated containers: nonces become ``(value, length)``
int pairs, packets become tuples interned under small-int identifiers, and
the adversary's per-turn dispatch is specialised into one of a few
precompiled modes for the stock ``ReliableAdversary``/
``RandomFaultAdversary``.  Any other adversary has no mode, and any
station other than the paper's ``Transmitter``/``Receiver`` has no flat
layout; those runs go to the object engine.  The object graph is
re-synchronised at run boundaries, so the stations, channels and
adversaries remain the public API (the veneer contract — see
PROTOCOL.md §14).

The kernel is the default engine.  The object engine stays as the
readable reference the differential suites pin the kernel against, and
as the fallback for every run the kernel declines.

Entry points: :func:`repro.kernel.engine.run_kernel`, reached through
``Simulator.run`` (``engine="kernel"``, the default), and
:class:`repro.kernel.hop.HopKernel`, the persistent per-hop variant the
relay fabric drives in bursts (``FabricSpec(engine="kernel")``, also
the default).
"""

from repro.kernel.engine import run_kernel
from repro.kernel.hop import HopKernel

__all__ = ["run_kernel", "HopKernel"]

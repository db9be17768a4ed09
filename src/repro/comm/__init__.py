"""Communication substrate: simulated MPI over a Cartesian rank grid.

The paper runs on Cray-MPICH with GPU-aware MPI over Slingshot 11; this
environment has no MPI (and no network at all), so the substrate is a
single-process SPMD simulator that preserves MPI's semantics:

* :class:`~repro.comm.topology.CartTopology` — periodic 3-D Cartesian
  decomposition with 26-neighbour connectivity;
* :class:`~repro.comm.simmpi.SimComm` — ranks, their fate and their
  traffic: the ledger, dead-rank semantics and the headers that outlive
  their receive (a duplicate's extra copy);
* :class:`~repro.comm.exchange.ResilientChannel` — the header protocol
  every consumer shares: the fault a header's send drew is replayed
  in place by its receive (checksum, size, retry, retransmission);
* :class:`~repro.comm.plan.ExchangePlan` — the static structure of one
  level's ghost exchange, for every topology (one periodic rank is 26
  self-messages, one walled rank none): which brick of which rank
  fills which ghost slot, and the table of messages that would carry
  them;
* :class:`~repro.comm.exchange.HaloExchange` — the V-cycle's
  ``exchange()``: ghost-brick exchange with all 26 neighbours, message
  aggregation across fields, and pack/unpack segment accounting driven
  by the brick storage ordering — the plan executed as one native brick
  copy over any number of stacked copies of the decomposition, followed by
  per-message headers when something needs individual messages; the
  only exchanger, at any rank count;
* :mod:`~repro.comm.protocols` — eager/rendezvous message protocol
  selection mirroring the CXI environment variables of Table I;
* :mod:`~repro.comm.mapping` — CPU–GPU–NIC binding models.

Functional correctness is real: distributed solves copy actual NumPy
data between rank subdomains and must match single-rank solves exactly.
Message *timing* is priced separately by :mod:`repro.machines.network`.
"""

from repro.comm.exchange import (
    ExchangeFaultError,
    HaloExchange,
    ResilientChannel,
    payload_checksum,
)
from repro.comm.mapping import NicBinding, binding_hop_penalty
from repro.comm.plan import ExchangePlan, exchange_plan_for
from repro.comm.protocols import CxiSettings, Protocol, select_protocol
from repro.comm.simmpi import SimComm, SubComm, UnmatchedReceiveError
from repro.comm.topology import CartTopology

__all__ = [
    "CartTopology",
    "SimComm",
    "SubComm",
    "UnmatchedReceiveError",
    "HaloExchange",
    "ExchangePlan",
    "exchange_plan_for",
    "ResilientChannel",
    "ExchangeFaultError",
    "payload_checksum",
    "Protocol",
    "CxiSettings",
    "select_protocol",
    "NicBinding",
    "binding_hop_penalty",
]

"""The compiled halo exchange: ghosts against an independent dense
reference, accounting against the per-message header protocol.

``HaloExchange`` writes every ghost by the ``ExchangePlan``'s index
copy; the data is judged against each copy's dense interior indexed by
position (``tests/test_exchange.py: check_ghosts_against_global``),
which shares no code with the plan.  What an exchange *accounts* —
message events, ledger rows, exchange counts — is judged against the
header protocol, forced from here, never by a switch in ``src/``: an
injector that arms every exchange and strikes nothing
(``tests/conftest.py``).  Under a fault plan only the exchanges an
armed message fault can strike (and those that drain what it left in
flight) post headers, and only those take the CRC32 sums the headers
carry, pinned here to the all-header run event by event.  That the
copy needs no check of its own is the plan's one-writer invariant,
proved at construction and pinned here over every small geometry.  A
tracer selects nothing: a traced solve is its untraced twin, exchange
for exchange.

It is also the only exchanger, so the plan is pinned at its two other
ends: one rank against the independent periodic wrap
(``BrickedArray.fill_ghost_periodic``), and ``k`` stacked copies of a
decomposition in one call against ``k`` calls.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bricks import BrickGrid, BrickedArray
from repro.bricks.brick_grid import NEIGHBOR_DIRECTIONS, direction_index
from repro.bricks.orderings import ORDERINGS, contiguous_segments
from repro.comm import (
    CartTopology, HaloExchange, ResilientChannel, SimComm, SubComm,
)
from repro.comm import exchange as exchange_module
from repro.comm.exchange import payload_checksum
from repro.comm.plan import ExchangePlan, exchange_plan_for
from repro.faults import FaultInjector, FaultPlan, FaultSpec, ResilienceConfig
from repro.faults.buddy import BuddyCheckpointer
from repro.gmg import GMGSolver, SolverConfig
from repro.gmg.boundary import BoundaryCondition
from repro.instrument import Recorder
from repro.obs import to_chrome_trace, traffic_matrix, validate_chrome_trace
from repro.obs.tracer import Tracer

from tests.conftest import QUIET_INJECTOR, ArmedNeverStriking, all_envelopes
from tests.oracle import OracleSolver
from tests.test_exchange import check_ghosts_against_global, stacked_fields

RANK_DIMS = [(2, 1, 1), (2, 2, 2), (3, 2, 1)]
BOUNDARIES = ["periodic", "dirichlet", "neumann"]


def build(
    dims, boundary="periodic", ordering="surface-major", nfields=1,
    whole=True, dtype=np.float64, reference=False, seed=7,
    shape=(2, 2, 2), copies=1, fault_plan=None,
):
    """An exchanger and ``fields_by_rank`` — for ``copies`` copies of the
    decomposition, each field the consecutive blocks of one stacked
    field — with random content everywhere (ghosts included, so a ghost
    the exchange must not touch shows).  The content is the stacked
    storage itself (``whole``), or is written rank by rank through each
    field's block, as a hierarchy's setup writes it.  ``fault_plan``
    attaches an injector; ``reference`` one that makes every exchange
    post headers."""
    grid = BrickGrid(shape, 4, ordering=ordering)
    condition = BoundaryCondition(boundary)
    topo = CartTopology(dims, periodic=condition is BoundaryCondition.PERIODIC)
    comm = SimComm(topo.size)
    recorder = Recorder()
    ex = HaloExchange(
        grid, topo, comm, recorder, condition,
        injector=(
            ArmedNeverStriking() if reference
            else fault_plan and FaultInjector(fault_plan, recorder)
        ),
    )
    rng = np.random.default_rng(seed)
    blocks = copies * topo.size
    fields_by_rank = [[] for _ in range(blocks)]
    for _ in range(nfields):
        content = rng.random((blocks * grid.num_slots, 4, 4, 4)).astype(dtype)
        fields = stacked_fields(grid, blocks, content if whole else None, dtype)
        for rank, field in enumerate(fields):
            if not whole:
                field.data[...] = content[
                    rank * grid.num_slots : (rank + 1) * grid.num_slots
                ]
            fields_by_rank[rank].append(field)
    return ex, fields_by_rank


def observable(ex, fields_by_rank):
    """Everything an exchange leaves behind."""
    comm, recorder = ex._root_comm(), ex.recorder
    return {
        "data": [[f.data.copy() for f in fields] for fields in fields_by_rank],
        "messages": list(recorder.messages),
        "exchange_counts": recorder.exchange_counts(),
        "sent_messages": comm.sent_messages,
        "sent_bytes": comm.sent_bytes,
        "bytes_by_pair": dict(comm.bytes_by_pair),
        "ledger": {key: tuple(entry) for key, entry in comm.ledger.items()},
    }


def assert_same(got, want):
    for fp, fr in zip(got.pop("data"), want.pop("data")):
        for a, b in zip(fp, fr):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got == want


def assert_matches_dense(ex, fields_by_rank, before):
    """Every neighbour-facing ghost of every copy and field holds what
    the dense reference says, and no interior brick moved.  ``before``
    is each field's storage ahead of the exchange."""
    grid, topo = ex.grid, ex.topology
    interior = grid.interior_slots
    for fields, saved in zip(fields_by_rank, before):
        for field, data in zip(fields, saved):
            assert np.array_equal(field.data[interior], data[interior])
    for c in range(len(fields_by_rank) // topo.size):
        block = slice(c * topo.size, (c + 1) * topo.size)
        for f in range(len(fields_by_rank[0])):
            dense = np.zeros(
                tuple(n * c_ for n, c_ in zip(topo.dims, grid.shape_cells))
            )
            for rank, data in enumerate(before[block]):
                o = topo.subdomain_origin(rank, grid.shape_cells)
                sub = BrickedArray(grid, data[f].copy(), dtype=data[f].dtype).to_ijk()
                dense[tuple(
                    slice(o[d], o[d] + grid.shape_cells[d]) for d in range(3)
                )] = sub
            check_ghosts_against_global(
                topo, grid, [fields[f] for fields in fields_by_rank[block]], dense
            )


def snapshot(fields_by_rank):
    return [[f.data.copy() for f in fields] for fields in fields_by_rank]


class TestPlanEqualsReference:
    @pytest.mark.parametrize("dims", RANK_DIMS)
    @pytest.mark.parametrize("boundary", BOUNDARIES)
    @pytest.mark.parametrize("nfields", [1, 2])
    @pytest.mark.parametrize("whole", [True, False], ids=["stacked", "per-rank"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["fp32", "fp64"])
    def test_byte_identity(self, dims, boundary, ordering, nfields, whole, dtype):
        """Ghosts as the dense reference says; accounting as the header
        protocol's — whether the content was written as the whole stack
        or rank by rank through the fields."""
        results = []
        for reference in (False, True):
            ex, fields = build(
                dims, boundary, ordering, nfields, whole, dtype, reference
            )
            before = snapshot(fields)
            ex.exchange(0, fields)
            ex.exchange(2, fields)
            assert_matches_dense(ex, fields, before)
            expect = "envelope" if reference else "planned"
            assert ex.path_counts[expect] == 2 and sum(ex.path_counts.values()) == 2
            ex.comm.assert_drained()
            got = observable(ex, fields)
            del got["data"]
            results.append(got)
        assert len(results[0]["messages"]) == 2 * ex.plan.num_messages
        assert results[0] == results[1]

    def test_subcomm_accounts_global_ranks(self):
        """Active-rank exchangers (agglomerated levels) run over a
        ``SubComm``: counters keep global rank ids on the parent."""
        results = []
        for reference in (False, True):
            grid = BrickGrid((2, 2, 2), 4)
            topo = CartTopology((2, 1, 1))
            parent = SimComm(8)
            ex = HaloExchange(
                grid, topo, SubComm(parent, (0, 4), tag_offset=100), Recorder(),
                injector=ArmedNeverStriking() if reference else None,
            )
            rng = np.random.default_rng(3)
            content = rng.random((2 * grid.num_slots, 4, 4, 4))
            fields = [[f] for f in stacked_fields(grid, 2, content)]
            before = snapshot(fields)
            ex.exchange(1, fields)
            assert_matches_dense(ex, fields, before)
            got = observable(ex, fields)
            del got["data"]
            results.append(got)
        # unit rank dims wrap onto the sender itself
        assert set(results[0]["bytes_by_pair"]) == {(0, 0), (0, 4), (4, 0), (4, 4)}
        assert results[0] == results[1]

    @pytest.mark.parametrize(
        "dims, copies, broken, named",
        [
            ((2, 1, 1), 1, "free", "field 1 of 2 rank field lists: rank 1's"),
            ((2, 1, 1), 1, "swapped", "field 0 of 2 rank field lists: rank 1's"),
            ((2, 1, 1), 2, "two-stacks", "field 0 of 4 rank field lists: rank 2's"),
            ((1, 1, 1), 2, "free", "field 1 of 2 rank field lists: rank 1's"),
        ],
        ids=["free-rank", "swapped-blocks", "two-stacks", "free-copies"],
    )
    def test_non_stack_fields_are_refused(self, dims, copies, broken, named):
        """Over more than one rank or copy, a field must be the
        consecutive blocks of one stacked field — its one copy runs over
        them.  Anything else is refused by name before a ghost moves;
        only a one-rank, one-copy call may pass a free-standing field."""
        ex, fields = build(dims, nfields=2, copies=copies)
        if broken == "free":
            last = fields[-1][1]
            fields[-1][1] = BrickedArray(last.grid, last.data.copy())
        elif broken == "swapped":
            fields[0], fields[1] = fields[1], fields[0]
        else:
            _, other = build(dims, nfields=2, copies=copies)
            fields[2:] = other[2:]
        before = snapshot(fields)
        with pytest.raises(ValueError, match=rf"cannot exchange {named} "):
            ex.exchange(0, fields)
        assert ex.path_counts == {"planned": 0, "envelope": 0}
        assert_same(observable(ex, fields), {
            "data": before, "messages": [], "exchange_counts": {},
            "sent_messages": 0, "sent_bytes": 0, "bytes_by_pair": {},
            "ledger": {},
        })


class TestOneRankPlanIsThePeriodicWrap:
    @pytest.mark.parametrize(
        "shape", [(1, 1, 1), (2, 2, 2), (4, 4, 4), (2, 1, 4)],
        ids=lambda s: "x".join(map(str, s)),
    )
    @pytest.mark.parametrize("stacked", [True, False], ids=["stacked", "free"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["fp32", "fp64"])
    def test_byte_identity(self, shape, ordering, stacked, dtype):
        """26 self-messages copy what ``fill_ghost_periodic`` copies, in
        a stacked block or in the lone free-standing field a one-rank,
        one-copy call may pass."""
        ex, fields = build((1, 1, 1), ordering=ordering, dtype=dtype, shape=shape)
        if not stacked:
            fields = [[BrickedArray(ex.grid, fields[0][0].data.copy(), dtype=dtype)]]
        (field,) = fields[0]
        wrapped = BrickedArray(ex.grid, field.data.copy(), dtype=dtype)
        wrapped.fill_ghost_periodic()
        ex.exchange(0, fields)
        assert ex.path_counts == {"planned": 1, "envelope": 0}
        assert ex.plan.num_messages == 26
        assert all(m.src_rank == m.dst_rank == 0 for m in ex.plan.messages)
        assert field.data.dtype == dtype
        assert field.data.tobytes() == wrapped.data.tobytes()


class TestCopiesInOneCall:
    """``k`` stacked copies of the decomposition through one ``exchange``
    leave what ``k`` exchanges of one copy each leave."""

    @pytest.mark.parametrize(
        "dims, reference, free",
        [
            ((1, 1, 1), False, False),
            ((1, 1, 1), False, True),
            ((2, 1, 1), False, False),
            ((2, 1, 1), True, False),
        ],
        ids=["1rank", "1rank-free", "2ranks", "2ranks-envelopes"],
    )
    @pytest.mark.parametrize("copies", [1, 3])
    @pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
    def test_equals_separate_calls(self, dims, reference, free, copies, boundary):
        """``free``: each separate call passes its copy's lone rank as a
        free-standing field."""
        kwargs = dict(
            boundary=boundary, nfields=2, reference=reference, copies=copies,
        )
        together, fields = build(dims, **kwargs)
        before = snapshot(fields)
        together.exchange(1, fields)
        assert_matches_dense(together, fields, before)
        apart, apart_fields = build(dims, **kwargs)
        if free:
            apart_fields = [
                [BrickedArray(f.grid, f.data.copy()) for f in rank_fields]
                for rank_fields in apart_fields
            ]
        size = apart.topology.size
        for c in range(copies):
            apart.exchange(1, apart_fields[c * size : (c + 1) * size])
        path = "envelope" if reference else "planned"
        assert together.path_counts[path] == 1 and apart.path_counts[path] == copies
        got, want = observable(together, fields), observable(apart, apart_fields)
        # one collective over k copies is one exchange event
        assert got.pop("exchange_counts") == {1: 1}
        assert want.pop("exchange_counts") == {1: copies}
        assert len(got["messages"]) == copies * together.plan.num_messages
        assert_same(got, want)

    def test_tables_tile_the_plan_per_copy(self):
        grid = BrickGrid((2, 2, 2), 4)
        plan = exchange_plan_for(grid, CartTopology((2, 1, 1)))
        src, dst = plan.tables(3)
        assert plan.tables(3)[0] is src and plan.tables(1) == (plan.src, plan.dst)
        stride = plan.num_ranks * plan.num_slots
        for c in range(3):
            part = slice(c * plan.num_bricks, (c + 1) * plan.num_bricks)
            assert np.array_equal(src[part], plan.src + c * stride)
            assert np.array_equal(dst[part], plan.dst + c * stride)


class TestPlanStructure:
    @pytest.mark.parametrize("dims", RANK_DIMS)
    @pytest.mark.parametrize("periodic", [True, False])
    def test_ghosts_written_once_from_interiors(self, dims, periodic, ordering):
        grid = BrickGrid((3, 2, 2), 4, ordering=ordering)
        topo = CartTopology(dims, periodic=periodic)
        plan = exchange_plan_for(grid, topo)
        S = grid.num_slots
        assert len(np.unique(plan.dst)) == len(plan.dst)
        assert np.isin(plan.dst % S, grid.ghost_slots).all()
        assert np.isin(plan.src % S, grid.interior_slots).all()
        if periodic:
            # every rank's whole ghost shell is filled by exchange
            for rank in range(topo.size):
                mine = plan.dst[plan.dst // S == rank] % S
                assert np.array_equal(np.sort(mine), grid.ghost_slots)
        # the per-pair traffic the accounting reads is the copy's
        for p in plan.pairs:
            rows = (plan.src // S == p.src_rank) & (plan.dst // S == p.dst_rank)
            assert p.bricks == rows.sum() > 0
            assert p.messages == sum(
                (m.src_rank, m.dst_rank) == (p.src_rank, p.dst_rank)
                for m in plan.messages
            )
        assert sum(p.bricks for p in plan.pairs) == plan.num_bricks

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.tuples(*[st.integers(1, 3)] * 3),
        periodic=st.booleans(),
        brick_dim=st.sampled_from([2, 4]),
        ordering=st.sampled_from(sorted(ORDERINGS)),
        data=st.data(),
    )
    def test_every_plan_has_one_writer_per_ghost_slot(
        self, dims, periodic, brick_dim, ordering, data
    ):
        """The copy's invariant over every small geometry, and over the
        tables tiled across copies with any dead ranks masked out."""
        grid = BrickGrid((2, 3, 2), brick_dim, ordering=ordering)
        topo = CartTopology(dims, periodic=periodic)
        plan = ExchangePlan(grid, topo)
        dead = frozenset(data.draw(st.sets(st.sampled_from(range(topo.size)))))
        S, R = grid.num_slots, topo.size
        for copies in (1, 3):
            for table_dead in (frozenset(), dead):
                src, dst = plan.tables(copies, table_dead)
                assert len(src) == len(dst)
                assert len(np.unique(dst)) == len(dst)
                assert np.isin(dst % S, grid.ghost_slots).all()
                assert np.isin(src % S, grid.interior_slots).all()
                assert (dst < copies * R * S).all()
                for table in (src, dst):
                    assert not np.isin(table // S % R, list(table_dead)).any()
                live = plan.live_receives(table_dead)
                assert len(dst) == copies * sum(m.bricks for m in live)

    @pytest.mark.parametrize("fault", ["twice", "not-ghost", "not-interior"])
    def test_a_broken_plan_is_refused_at_construction(self, fault, monkeypatch):
        """A ghost slot with two writers (or a row writing an interior
        slot, or reading a ghost one) is refused when the plan is
        built, naming the slot and the messages."""
        grid = BrickGrid((2, 2, 2), 4)
        topo = CartTopology((2, 1, 1))
        ghost, send = grid.ghost_region_slots, grid.send_region_slots
        west, east = (-1, 0, 0), (1, 0, 0)
        if fault == "twice":
            # the east ghost face is the west one again: two writers
            # for each west slot, none for the east
            monkeypatch.setattr(
                grid, "ghost_region_slots",
                lambda d: ghost(west if d == east else d),
            )
            slot = int(ghost(west).min())
            want = [f"rank 0's ghost slot {slot} twice"] + [
                f"from rank 1 -> rank 0 along direction {d} (tag "
                f"{direction_index(d)})"
                for d in (west, east)
            ]
        elif fault == "not-ghost":
            monkeypatch.setattr(
                grid, "ghost_region_slots",
                lambda d: send(d) if d == west else ghost(d),
            )
            want = ["not a ghost slot", "along direction (1, 0, 0)"]
        else:
            monkeypatch.setattr(
                grid, "send_region_slots",
                lambda d: ghost(d) if d == east else send(d),
            )
            want = ["not an interior slot", "along direction (1, 0, 0)"]
        with pytest.raises(ValueError, match="exchange plan") as err:
            ExchangePlan(grid, topo)
        for part in want:
            assert part in str(err.value)

    def test_message_table_follows_the_protocol(self):
        grid = BrickGrid((2, 2, 2), 4)
        topo = CartTopology((3, 2, 1), periodic=False)
        plan = exchange_plan_for(grid, topo)
        sends = [
            (rank, topo.neighbor(rank, d), d)
            for rank in range(topo.size)
            for d in NEIGHBOR_DIRECTIONS
            if topo.neighbor(rank, d) is not None
        ]
        assert [(m.src_rank, m.dst_rank, m.direction) for m in plan.messages] == sends
        receives = [
            (rank, topo.neighbor(rank, d), d)
            for rank in range(topo.size)
            for d in NEIGHBOR_DIRECTIONS
            if topo.neighbor(rank, d) is not None
        ]
        assert [
            (m.dst_rank, m.src_rank, m.ghost_direction) for m in plan.receives
        ] == receives
        for m in plan.messages:
            assert m.tag == direction_index(m.direction)
            assert m.bricks == grid.region_num_bricks(m.direction)
        assert plan.num_bricks == sum(m.bricks for m in plan.messages)

    @pytest.mark.parametrize("dims", RANK_DIMS)
    def test_surface_major_receives_are_one_segment(self, dims):
        """The pack-free claim, on the plan: under surface-major every
        receive is one contiguous range of the stacked storage."""
        topo = CartTopology(dims)
        sm = exchange_plan_for(BrickGrid((3, 3, 3), 4), topo)
        for i in range(len(sm.receives)):
            dst = sm.dst[sm.offsets[i] : sm.offsets[i + 1]]
            assert len(contiguous_segments(dst)) == 1
        lex = exchange_plan_for(
            BrickGrid((3, 3, 3), 4, ordering="lexicographic"), topo
        )
        assert any(
            len(contiguous_segments(lex.dst[lex.offsets[i] : lex.offsets[i + 1]])) > 1
            for i in range(len(lex.receives))
        )

    def test_plans_are_shared_by_geometry(self):
        topo = CartTopology((2, 2, 1))
        a = exchange_plan_for(BrickGrid((2, 2, 2), 4), topo)
        assert exchange_plan_for(BrickGrid((2, 2, 2), 4), CartTopology((2, 2, 1))) is a
        assert exchange_plan_for(BrickGrid((2, 2, 2), 4), CartTopology((2, 1, 2))) is not a
        assert exchange_plan_for(
            BrickGrid((2, 2, 2), 4), CartTopology((2, 2, 1), periodic=False)
        ) is not a


class TestPathSelection:
    def exchanger(self, **kwargs):
        grid = BrickGrid((2, 2, 2), 4)
        topo = CartTopology((2, 1, 1))
        comm = kwargs.pop("comm", None) or SimComm(2)
        ex = HaloExchange(grid, topo, comm, **kwargs)
        return ex, [[f] for f in stacked_fields(grid, 2)]

    def test_default_is_planned(self):
        ex, fields = self.exchanger()
        assert ex.envelope_reason() is None
        ex.exchange(0, fields)
        assert ex.path_counts == {"planned": 1, "envelope": 0}

    def injected(self, spec, vcycle=1):
        recorder = Recorder()
        injector = FaultInjector(FaultPlan(specs=(spec,)), recorder)
        injector.begin_vcycle(vcycle)
        return self.exchanger(recorder=recorder, injector=injector)

    def test_fault_armed_for_this_exchange_takes_envelopes(self):
        ex, fields = self.injected(FaultSpec("drop", vcycle=1, level=0))
        assert ex.envelope_reason(0) == "armed message fault"
        ex.exchange(0, fields)
        assert ex.path_counts == {"planned": 0, "envelope": 1}
        assert ex.envelope_reasons == {"armed message fault": 1}
        assert ex.recorder.fault_counts()["inject_drop"] == 1

    @pytest.mark.parametrize(
        "spec, struck_first",
        [
            (FaultSpec("drop", vcycle=1, level=1), 0),
            (FaultSpec("drop", vcycle=2, level=0), 0),
            (FaultSpec("drop", vcycle=1, level=0), 1),
            (FaultSpec("sdc", max_hits=None), 0),
        ],
        ids=["other-level", "other-cycle", "exhausted", "sdc-only"],
    )
    def test_injector_with_nothing_to_strike_runs_the_plain_plan(
        self, spec, struck_first, monkeypatch, checksum_calls
    ):
        """An attached injector is not a reason: the exchange runs the
        plain plan copy, takes no sums and posts nothing."""
        ex, fields = self.injected(spec)
        for _ in range(struck_first):
            ex.exchange(0, fields)  # spends the one-shot spec
        assert ex.path_counts["envelope"] == struck_first
        assert ex.envelope_reason(0) is None

        def no_send(*args, **kwargs):
            raise AssertionError("a plain plan copy posts no header")

        monkeypatch.setattr(ResilientChannel, "_send", no_send)
        ex.exchange(0, fields)
        assert ex.path_counts == {"planned": 1, "envelope": struck_first}
        assert len(checksum_calls) == struck_first
        assert ex.comm.pending == 0
        assert ex.comm.sent_messages == (
            (1 + struck_first) * ex.plan.num_messages + struck_first
        )

    def test_persistent_storm_envelopes_every_matching_exchange(self):
        """``max_hits=None`` with ``vcycle_from``: every exchange of the
        level from that cycle on is struck, none before, none elsewhere."""
        ex, fields = self.injected(
            FaultSpec("delay", level=0, vcycle_from=2, max_hits=None)
        )
        ex.exchange(0, fields)
        for cycle in (2, 3, 4):
            ex.injector.begin_vcycle(cycle)
            ex.exchange(0, fields)
            ex.exchange(1, fields)
        assert ex.path_counts == {"planned": 4, "envelope": 3}
        assert ex.envelope_reasons == {"armed message fault": 3}
        counts = ex.recorder.fault_counts()
        assert counts["inject_delay"] == counts["detect_delay"] == 3 * 52
        ex.comm.assert_drained()

    @pytest.mark.parametrize("where", ["exchanger", "comm"])
    def test_enabled_tracer_runs_the_planned_copy(self, where, monkeypatch):
        """Watching selects nothing: the traced exchange is the plan
        copy, posts no envelope, and its span says what ran — nor does
        a traced channel that has already posted on the communicator."""
        tracer = Tracer()
        if where == "exchanger":
            ex, fields = self.exchanger(tracer=tracer)
        else:
            comm = SimComm(2)
            BuddyCheckpointer(comm, CartTopology((2, 1, 1)), tracer=tracer).ship(
                0, [np.zeros(4), np.ones(4)]
            )
            ex, fields = self.exchanger(comm=comm)
        assert ex.envelope_reason() is None

        def no_send(*args, **kwargs):
            raise AssertionError("a traced exchange posts no header")

        monkeypatch.setattr(ResilientChannel, "_send", no_send)
        ex.exchange(0, fields)
        assert ex.path_counts == {"planned": 1, "envelope": 0}
        assert not ex.envelope_reasons and not tracer.children
        if where == "exchanger":
            (span,) = tracer.spans
            assert (span.name, span.attrs) == ("exchange", {
                "l": 0, "nfields": 1, "path": "planned",
                "messages": ex.plan.num_messages, "bytes": ex.plan.nbytes(8),
            })

    def test_envelope_exchange_leaves_no_per_message_spans(self):
        """Headers that genuinely post are not traced one by one: the
        exchange span says what ran, and a fault's events are instants
        inside it.  The halo unpacks nothing (its ghosts were copied)."""
        recorder, tracer = Recorder(), Tracer()
        recorder.tracer = tracer
        injector = FaultInjector(FaultPlan.single("drop", level=0), recorder)
        ex, fields = self.exchanger(
            recorder=recorder, tracer=tracer, injector=injector,
        )
        ex.exchange(0, fields)
        (span,) = tracer.spans
        assert span.attrs["path"] == "envelope"
        assert not tracer.children
        assert [i.name for i in tracer.instants] == [
            f"fault:{kind}" for kind in
            ("inject_drop", "detect_drop", "retry", "retransmit")
        ]
        assert {i.parent for i in tracer.instants} == {span.index}

    @pytest.mark.parametrize("sub", [False, True], ids=["SimComm(1)", "SubComm-of-1"])
    @pytest.mark.parametrize("why", ["injector", "tracer"])
    def test_communicator_of_one_never_takes_envelopes(self, sub, why):
        """No wire to strike: a lone rank's messages are copies within
        it, whatever is attached."""
        from repro.faults import FaultInjector, FaultPlan

        recorder, tracer = Recorder(), Tracer()
        kwargs = {"recorder": recorder}
        if why == "injector":
            # would drop every message of every exchange, had it a wire
            kwargs["injector"] = FaultInjector(FaultPlan.single("drop"), recorder)
            root = SimComm(4 if sub else 1)
        else:
            kwargs["tracer"] = tracer
            root = SimComm(4 if sub else 1)
        comm = SubComm(root, (2,), tag_offset=100) if sub else root
        grid = BrickGrid((2, 2, 2), 4)
        ex = HaloExchange(grid, CartTopology((1, 1, 1)), comm, **kwargs)
        assert ex.envelope_reason() is None
        field = BrickedArray(grid, np.random.default_rng(5).random((grid.num_slots, 4, 4, 4)))
        wrapped = field.copy()
        wrapped.fill_ghost_periodic()
        ex.exchange(0, [[field]])
        assert ex.path_counts == {"planned": 1, "envelope": 0}
        assert field.data.tobytes() == wrapped.data.tobytes()
        assert recorder.fault_counts() == {} and len(recorder.messages) == 26
        rank = 2 if sub else 0
        assert dict(root.bytes_by_pair) == {(rank, rank): ex.plan.nbytes(8)}
        if why == "tracer":
            assert [s.name for s in tracer.spans] == ["exchange"]
            assert not tracer.child(rank).spans

    def test_killed_rank_takes_envelopes(self):
        ex, fields = self.exchanger()
        ex.exchange(0, fields)
        ex.comm.kill(1)
        assert "dead" in ex.envelope_reason()
        for (f,) in fields:
            f.data[ex.grid.interior_slots] = 1.0
        ex.exchange(0, fields)
        assert ex.path_counts == {"planned": 1, "envelope": 1}
        # the survivor's own wrap completes; nothing reaches or leaves
        # the dead endpoint
        survivor, victim = fields[0][0].data, fields[1][0].data
        assert survivor[ex.grid.ghost_region_slots((0, 1, 0))].all()
        assert not survivor[ex.grid.ghost_region_slots((1, 0, 0))].any()
        assert not victim[ex.grid.ghost_slots].any()

    def test_stray_envelope_takes_envelopes(self):
        ex, fields = self.exchanger()
        ex.comm.hold(0, 1, 999, [8])
        assert ex.comm.pending == 1
        assert "in flight" in ex.envelope_reason()
        ex.exchange(0, fields)
        assert ex.path_counts == {"planned": 0, "envelope": 1}
        assert ex.comm.pending == 1  # the stray is still there to be found

    def test_pending_counts_every_queue(self):
        """``pending`` — what ``envelope_reason`` reads as traffic in
        flight — counts every held header, over every envelope."""
        comm = SimComm(2)
        comm.hold(1, 0, 0, [16])
        comm.hold(1, 0, 2, [16, 16])
        assert comm.pending == 3 == sum(comm.in_flight().values())
        assert comm.take_held(1, 0, 2) == [16, 16]
        assert comm.pending == 1 == sum(comm.in_flight().values())
        assert comm.reset_in_flight() == 1
        assert comm.pending == 0


#: attaches an injector that never strikes a message
QUIET = FaultPlan.single("sdc", vcycle=99)


@pytest.fixture
def checksum_calls(monkeypatch):
    """Every ``message_checksums`` result, in call order."""
    calls = []
    real = exchange_module.message_checksums

    def recording(messages):
        calls.append(real(messages))
        return calls[-1]

    monkeypatch.setattr(exchange_module, "message_checksums", recording)
    return calls


def send_sums(ex, fields_by_rank, dead=frozenset()):
    """What each live message's header carries, copy-major in the order
    the plan's flat tables list the messages: the CRC32 of its send
    bricks, the fields ``np.stack``ed."""
    size, send = ex.topology.size, ex.plan.send_slots
    return [
        payload_checksum(np.stack([
            f.data[send[m.direction]]
            for f in fields_by_rank[c * size + m.src_rank]
        ]))
        for c in range(len(fields_by_rank) // size)
        for m in ex.plan.live_receives(dead)
    ]


class TestHeaderSums:
    """Only an exchange that posts headers takes the CRC32 sums they
    carry — one per live plan message, over its send bricks — and its
    ghosts and accounting are the plain copy's."""

    def test_an_exchange_posting_no_headers_takes_none(self, checksum_calls):
        ex, fields = build((2, 2, 1), nfields=2, fault_plan=QUIET)
        ex.exchange(1, fields)
        assert ex.path_counts == {"planned": 1, "envelope": 0}
        assert checksum_calls == []

    @pytest.mark.parametrize("copies", [1, 3])
    @pytest.mark.parametrize("nfields", [1, 2])
    def test_one_sum_per_message_over_its_send_bricks(
        self, copies, nfields, ordering, checksum_calls
    ):
        kwargs = dict(ordering=ordering, nfields=nfields, copies=copies)
        ex, fields = build((2, 2, 1), reference=True, **kwargs)
        plain, plain_fields = build((2, 2, 1), **kwargs)
        want = send_sums(ex, fields)
        ex.exchange(1, fields)
        plain.exchange(1, plain_fields)
        assert ex.path_counts == {"planned": 0, "envelope": 1}
        (sums,) = checksum_calls  # the plain exchange takes none
        assert sums == want == send_sums(ex, fields)
        assert len(sums) == copies * ex.plan.num_messages
        assert ex.comm.pending == 0
        assert_same(observable(ex, fields), observable(plain, plain_fields))

    def test_a_dead_endpoint_s_messages_take_none(self, checksum_calls):
        ex, fields = build((2, 2, 1), reference=True, nfields=2, copies=2)
        ex.comm.kill(1)
        ex.exchange(0, fields)
        (sums,) = checksum_calls
        live = ex.plan.live_receives(frozenset({1}))
        assert len(sums) == 2 * len(live) < 2 * ex.plan.num_messages
        assert sums == send_sums(ex, fields, frozenset({1}))


class TestSolverLevel:
    CONFIG = SolverConfig(
        global_cells=32, num_levels=3, brick_dim=4, rank_dims=(2, 2, 2),
    )

    def solve(self, config, solver_cls=GMGSolver, **kwargs):
        solver = solver_cls(config, **kwargs)
        result = solver.solve()
        counts = {"planned": 0, "envelope": 0}
        for _, ex in solver.halo_exchangers():
            for path, n in ex.path_counts.items():
                counts[path] += n
        return solver, result, counts

    def reference(self, config, solver_cls=GMGSolver):
        """The same solve with every exchange as envelopes."""
        with all_envelopes():
            return self.solve(config, solver_cls, **QUIET_INJECTOR)

    def test_plan_equals_traced_reference_equals_one_rank(self):
        planned, p_res, p_counts = self.solve(self.CONFIG)
        _, watched, w_counts = self.solve(self.CONFIG, tracer=Tracer())
        assert w_counts == p_counts
        assert watched.residual_history == p_res.residual_history
        traced, t_res, t_counts = self.reference(self.CONFIG)
        assert p_counts["envelope"] == 0 and p_counts["planned"] > 0
        assert t_counts["planned"] == 0 and t_counts["envelope"] == p_counts["planned"]
        assert p_res.residual_history == t_res.residual_history
        assert np.array_equal(planned.solution(), traced.solution())
        assert p_res.recorder.messages == t_res.recorder.messages
        assert p_res.recorder.exchange_counts() == t_res.recorder.exchange_counts()
        assert planned.comm.sent_messages == traced.comm.sent_messages
        assert planned.comm.sent_bytes == traced.comm.sent_bytes
        assert planned.comm.bytes_by_pair == traced.comm.bytes_by_pair
        default = SolverConfig(global_cells=32, num_levels=3, brick_dim=4)
        _, d_res, _ = self.solve(default)
        assert d_res.residual_history == p_res.residual_history

    #: 16 ranks whose level 2 runs on a 2x1x1 active set over a SubComm
    AGGLOMERATED = {
        "rank_dims": (4, 2, 2), "brick_dim": 2, "agglomerate_threshold": 32,
    }

    @pytest.mark.parametrize(
        "extra",
        [
            AGGLOMERATED,
            {**AGGLOMERATED, "boundary": "dirichlet"},
            # the oracle's per-rank kernel schedule over the same
            # stacked storage and ghost copy
            {"solver_cls": OracleSolver, "max_vcycles": 3},
            {"bottom_solver": "cg"},
            {"precision": "fp32", "tol": 1e-4},
        ],
        ids=["agglomerated", "agglomerated-dirichlet", "oracle",
             "cg-bottom", "fp32"],
    )
    def test_variants_equal_their_traced_reference(self, extra):
        extra = dict(extra)
        solver_cls = extra.pop("solver_cls", GMGSolver)
        extra.setdefault("max_vcycles", 4)
        config = dataclasses.replace(self.CONFIG, global_cells=16, **extra)
        planned, p_res, p_counts = self.solve(config, solver_cls)
        traced, t_res, t_counts = self.reference(config, solver_cls)
        assert p_counts["envelope"] == 0
        assert t_counts == {"planned": 0, "envelope": p_counts["planned"]}
        assert p_res.residual_history == t_res.residual_history
        assert np.array_equal(planned.solution(), traced.solution())
        assert p_res.recorder.messages == t_res.recorder.messages
        assert planned.comm.bytes_by_pair == traced.comm.bytes_by_pair
        if "agglomerate_threshold" in extra:
            assert any(
                isinstance(ex.comm, SubComm) for _, ex in planned.halo_exchangers()
            )


def one_of_each(seed):
    """A drop, a corruption, a duplicate, a delay and a silent
    corruption, each where and when the seed says."""
    rng = np.random.default_rng([seed, 0xFA])
    return FaultPlan(specs=tuple(
        FaultSpec(
            kind, vcycle=int(rng.integers(1, 4)), level=int(rng.integers(2)),
            rank=int(rng.integers(8)) if kind == "sdc" else None,
        )
        for kind in ("drop", "corrupt", "duplicate", "delay", "sdc")
    ))


#: drops every level-0 message from cycle 2 on: retries cannot win
STORM = FaultPlan.single("drop", level=0, vcycle_from=2, max_hits=None)


class TestFaultedSolveEqualsAllEnvelopeReference:
    """Under a fault plan a solve envelopes only what a fault can
    strike; the reference (every exchange armed) envelopes everything,
    as every faulted solve used to.  Both must inject, detect and
    recover identically."""

    #: converges in four clean cycles: every fault of cycles 1-3 fires
    #: and an all-envelope reference solve stays near half a second
    CONFIG = SolverConfig(
        global_cells=16, num_levels=2, brick_dim=4, rank_dims=(2, 2, 2),
        max_smooths=6, bottom_smooths=20, tol=1e-4,
    )

    def solve(self, plan, tracer=None, **overrides):
        solver = GMGSolver(
            dataclasses.replace(self.CONFIG, **overrides),
            resilience=ResilienceConfig(), fault_plan=plan, tracer=tracer,
        )
        return solver, solver.solve()

    @pytest.mark.parametrize(
        "plan", [one_of_each(0), one_of_each(1), one_of_each(2), STORM],
        ids=["seed0", "seed1", "seed2", "storm"],
    )
    def test_same_faults_traffic_and_answer(self, plan, checksum_calls):
        solver, result = self.solve(plan)
        sums = list(checksum_calls)  # this solve's alone
        enveloped_messages = sum(
            ex.path_counts["envelope"] * ex.plan.num_messages
            for _, ex in solver.halo_exchangers()
        )
        # one sum per message of every exchange that posted headers,
        # taken on the sending side only; the plain copies take none
        assert len(sums) == sum(
            ex.path_counts["envelope"] for _, ex in solver.halo_exchangers()
        )
        assert sum(map(len, sums)) == enveloped_messages > 0
        with all_envelopes():
            traced, reference = self.solve(plan)
        exchangers = [ex for _, ex in solver.halo_exchangers()]
        total = sum(sum(ex.path_counts.values()) for ex in exchangers)
        enveloped = sum(ex.path_counts["envelope"] for ex in exchangers)
        assert 0 < enveloped < total
        assert [ex.path_counts for _, ex in traced.halo_exchangers()] == [
            {"planned": 0, "envelope": sum(ex.path_counts.values())}
            for ex in exchangers
        ]
        assert result.status == reference.status
        assert result.status == (
            "failed_faults" if plan is STORM else "converged"
        )
        assert result.rollbacks == reference.rollbacks
        assert result.executed_vcycles == reference.executed_vcycles
        assert result.residual_history == reference.residual_history
        assert np.array_equal(solver.solution(), traced.solution())
        assert len(result.recorder.faults) == len(reference.recorder.faults)
        for got, want in zip(result.recorder.faults, reference.recorder.faults):
            assert dataclasses.asdict(got) == dataclasses.asdict(want)
        assert result.recorder.messages == reference.recorder.messages
        for counter in ("sent_messages", "sent_bytes", "retransmissions"):
            assert getattr(solver.comm, counter) == getattr(traced.comm, counter)
        assert solver.comm.bytes_by_pair == traced.comm.bytes_by_pair
        solver.comm.assert_drained()

    def test_storm_envelopes_every_exchange_it_can_strike(self):
        """From cycle 2 on every level-0 exchange posts headers."""
        quiet_cycles, _ = self.solve(QUIET, max_vcycles=1)
        solver, result = self.solve(STORM)
        (_, before), (_, level0) = (
            s.halo_exchangers()[0] for s in (quiet_cycles, solver)
        )
        assert level0.path_counts["planned"] == before.path_counts["planned"]
        assert level0.envelope_reasons == {
            "armed message fault": level0.path_counts["envelope"]
        }
        assert result.status == "failed_faults"

    def test_duplicate_on_the_final_exchange_is_drained(self):
        """The solve's only exchange is struck, so no later receive
        discards the copy (``test_faults`` has the traced twin)."""
        solver, result = self.solve(
            FaultPlan.single("duplicate", vcycle=0, level=0), max_vcycles=0
        )
        (dup,) = result.recorder.faults_of("detect_duplicate")
        assert dup.level == 0 and dup.rank >= 0
        _, level0 = solver.halo_exchangers()[0]
        assert level0.path_counts == {"planned": 0, "envelope": 1}
        solver.comm.assert_drained()


def ladder_fault_plan(seed):
    """``benchmarks/ladder``'s ``faulted_8rank_32`` recipe: two silent
    corruptions and six message faults, sited by the seed."""
    rng = np.random.default_rng([seed, 0xFA])
    second = int(rng.choice((3, 5)))
    sites = [("sdc", int(rng.integers(2, second))), ("sdc", second)] + [
        (kind, int(rng.integers(2, 6)))
        for kind in ("drop", "drop", "corrupt", "corrupt", "duplicate", "delay")
    ]
    specs = []
    for kind, vcycle in sites:
        level = int(rng.choice((0, 1, 2)))
        specs.extend(FaultPlan.random(
            int(rng.integers(2**31)), 1, kinds=(kind,),
            vcycles=(vcycle, vcycle), levels=(level,), num_ranks=8,
        ).specs)
    return FaultPlan(specs=tuple(specs))


class TestTracedSolveIsItsUntracedTwin:
    """A tracer selects nothing: the traced solve takes the paths, posts
    the envelopes and leaves the bytes of the untraced one."""

    SMALL = dict(
        global_cells=16, num_levels=2, brick_dim=4, max_smooths=6,
        bottom_smooths=20, max_vcycles=3,
    )

    @staticmethod
    def left_behind(hierarchy, **extra):
        comm, recorder = hierarchy.comm, hierarchy.recorder
        traffic = traffic_matrix(comm)
        return {
            "envelopes": sum(
                ex.path_counts["envelope"] for _, ex in hierarchy.halo_exchangers()
            ),
            "messages": list(recorder.messages),
            "sent_messages": comm.sent_messages,
            "sent_bytes": comm.sent_bytes,
            "retransmissions": comm.retransmissions,
            "bytes_by_pair": comm.bytes_by_pair,
            "ledger": {key: tuple(entry) for key, entry in comm.ledger.items()},
            "traffic": {
                name: getattr(traffic, name).tolist()
                for name in ("messages", "nbytes", "retransmissions")
            },
            "traffic_by_level": {
                lev: (traffic.level_messages[lev].tolist(),
                      traffic.level_nbytes[lev].tolist())
                for lev in traffic.levels()
            },
            **extra,
        }

    def solved(self, tracer, config, **kwargs):
        solver = GMGSolver(config, tracer=tracer, **kwargs)
        result = solver.solve()
        return self.left_behind(
            solver, status=result.status,
            history=[h.hex() for h in result.residual_history],
            solution=solver.solution().tobytes(),
            faults=[dataclasses.asdict(f) for f in result.recorder.faults],
        )

    @pytest.mark.parametrize(
        "dims,boundary",
        [((1, 1, 1), "dirichlet"), ((2, 1, 1), "periodic"),
         ((2, 2, 1), "periodic"), ((2, 2, 2), "periodic")],
        # one periodic rank has no shell and exchanges nothing; a walled
        # one still runs its (message-less) plan every exchange
        ids=["1rank-walled", "2ranks", "4ranks", "8ranks"],
    )
    def test_fault_free(self, dims, boundary):
        config = SolverConfig(rank_dims=dims, boundary=boundary, **self.SMALL)
        plain = self.solved(None, config)
        tracer = Tracer()
        traced = self.solved(tracer, config)
        assert traced == plain
        assert plain["envelopes"] == 0
        per_rank = {s.name for c in tracer.children.values() for s in c.spans}
        assert not per_rank & {"unpack", "drain-stale"}
        exchanges = tracer.find("exchange")
        assert {s.attrs["path"] for s in exchanges} == {"planned"}
        assert sum(s.attrs["messages"] for s in exchanges) == plain["sent_messages"]
        assert sum(s.attrs["bytes"] for s in exchanges) == plain["sent_bytes"]

    def test_cohort_of_four_over_two_ranks(self):
        from repro.service import SolveRequest
        from repro.service.cohort import CohortSolver

        config = SolverConfig(rank_dims=(2, 1, 1), **self.SMALL)
        requests = [
            SolveRequest(config=config, amplitude=a, request_id=f"r{i}")
            for i, a in enumerate((1.0, 0.5, 2.0, 1.5, 0.75))
        ]
        runs = []
        for tracer in (None, Tracer()):
            cohort = CohortSolver(config, capacity=4, tracer=tracer)
            results = cohort.solve_stream(requests)
            runs.append(self.left_behind(
                cohort.hierarchy,
                histories=[
                    (r.request.request_id, [h.hex() for h in r.residual_history])
                    for r in results
                ],
            ))
        plain, traced = runs
        assert traced == plain
        assert plain["envelopes"] == 0

    def test_ladder_seed3_fault_plan(self):
        """The struck exchanges move envelopes, traced or not, and the
        matrix counts what the faults cost on the wire."""
        config = SolverConfig(
            global_cells=32, num_levels=3, brick_dim=4, rank_dims=(2, 2, 2)
        )
        kwargs = dict(
            fault_plan=ladder_fault_plan(3), resilience=ResilienceConfig()
        )
        plain = self.solved(None, config, **kwargs)
        tracer = Tracer()
        traced = self.solved(tracer, config, **kwargs)
        assert traced == plain
        assert plain["status"] == "converged"
        assert 5 <= plain["envelopes"] <= 7
        struck = [s for s in tracer.find("exchange") if s.attrs["path"] == "envelope"]
        assert len(struck) == plain["envelopes"]
        assert validate_chrome_trace(to_chrome_trace(tracer))["pids"] == 9
        # the matrix is the ledger, resends included
        resent = np.array(plain["traffic"]["retransmissions"])
        assert resent.sum() == plain["retransmissions"] == 4
        assert np.array(plain["traffic"]["messages"]).sum() == plain["sent_messages"]
        by_pair = np.zeros((8, 8), dtype=np.int64)
        for (src, dst), nbytes in plain["bytes_by_pair"].items():
            by_pair[src, dst] = nbytes
        assert by_pair.tolist() == plain["traffic"]["nbytes"]

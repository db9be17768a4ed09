"""The ghost exchange's native brick copy against the NumPy take/assign.

A fault-free exchange lands its ghosts with one generated C call
(``repro.dsl.native.generate_exchange_source``): a ``memcpy`` of one
whole brick per ``(src, dst)`` row of the plan's table, for every field,
bound once per field arrays.  Where no kernel can be had the exchange
takes one NumPy take and indexed assign per field instead.  These tests
pin the two to the same bytes — every slot of every field, after every
exchange — over dtypes, brick sizes, stacked copies, dead ranks,
sub-communicators and walled boundaries; and check that a binding is
reused while its arrays are, refused by name where the C copy cannot
take them, and counted as ``call_counts()["exchange"]``.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.bricks import BrickedArray, BrickGrid
from repro.comm import CartTopology, HaloExchange, SimComm, SubComm
from repro.dsl import native
from repro.gmg import GMGSolver, SolverConfig
from repro.gmg.boundary import BoundaryCondition
from repro.instrument import Recorder
from tests.conftest import numpy_path
from tests.test_exchange import stacked_fields

DTYPES = {"fp64": np.float64, "fp32": np.float32}


def exchanged(make_exchanger, grid, blocks, nfields, dtype, seed=0, kill=()):
    """Exchange ``nfields`` stacked fields of ``blocks`` blocks, filled
    with seeded random content (ghosts included), natively and through
    NumPy; returns each path's field bytes and the native exchanger."""
    rng = np.random.default_rng(seed)
    shape = (blocks * grid.num_slots, *(grid.brick_dim,) * 3)
    content = [rng.standard_normal(shape).astype(dtype) for _ in range(nfields)]
    out = []
    for path in ("native", "numpy"):
        ex = make_exchanger()
        for rank in kill:
            ex.comm.kill(rank)
        fields = [stacked_fields(grid, blocks, c, dtype)[0] for c in content]
        if path == "native":
            ex.exchange(0, fields)
            native_ex = ex
        else:
            with numpy_path():
                ex.exchange(0, fields)
        out.append([f.data.tobytes() for f in fields])
    return out, native_ex


def assert_native_copy(ex, before: dict) -> None:
    """``ex``'s last exchange ran the bound native copy, counted once."""
    assert native.call_counts()["exchange"] == before["exchange"] + 1
    assert all(call.reason is None for call, _, _ in ex._bound.values())


@pytest.mark.parametrize("dtype", list(DTYPES), ids=list(DTYPES))
@pytest.mark.parametrize("B", [2, 4, 8])
@pytest.mark.parametrize("copies", [1, 3])
def test_native_copy_is_byte_equal_to_take_assign(native_backend, dtype, B, copies):
    grid = BrickGrid((2, 2, 2), B)
    topo = CartTopology((2, 2, 1))
    before = native.call_counts()
    (fast, slow), ex = exchanged(
        lambda: HaloExchange(grid, topo, SimComm(topo.size)),
        grid, copies * topo.size, 2, DTYPES[dtype], seed=B * copies,
    )
    assert fast == slow
    assert_native_copy(ex, before)


def test_dead_rank_mask_moves_the_same_bytes(native_backend):
    """A dead rank's messages are left out of the native table as out
    of NumPy's: its slots, and the ghosts it would have filled, keep
    their bytes."""
    grid = BrickGrid((2, 2, 2), 4)
    topo = CartTopology((2, 2, 1))
    before = native.call_counts()
    (fast, slow), ex = exchanged(
        lambda: HaloExchange(grid, topo, SimComm(topo.size)),
        grid, topo.size, 2, np.float64, kill=(1,),
    )
    assert fast == slow
    assert_native_copy(ex, before)
    assert ex.path_counts["envelope"] == 1
    (_, _, dead), = ex._bound.values()
    assert dead == {1}


def test_agglomerated_level_on_a_sub_communicator(native_backend):
    grid = BrickGrid((2, 2, 2), 4)
    topo = CartTopology((2, 1, 1))
    parent = SimComm(8)
    before = native.call_counts()
    (fast, slow), ex = exchanged(
        lambda: HaloExchange(
            grid, topo, SubComm(parent, (0, 4), tag_offset=100), Recorder()
        ),
        grid, topo.size, 1, np.float64,
    )
    assert fast == slow
    assert_native_copy(ex, before)
    assert {src for _, src, _ in parent.ledger} == {0, 4}


@pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 1)], ids=["one", "two"])
def test_walled_boundary_fills_after_the_copy(native_backend, boundary, dims):
    """Corner mirrors read exchanged ghosts: the fills must see what the
    native copy landed, as they see NumPy's."""
    grid = BrickGrid((2, 2, 2), 4)
    topo = CartTopology(dims, periodic=False)
    condition = BoundaryCondition(boundary)
    before = native.call_counts()
    (fast, slow), ex = exchanged(
        lambda: HaloExchange(grid, topo, SimComm(topo.size), boundary=condition),
        grid, topo.size, 2, np.float32,
    )
    assert fast == slow
    assert_native_copy(ex, before)


def test_binding_is_reused_while_the_arrays_are(native_backend):
    grid = BrickGrid((2, 2, 2), 4)
    topo = CartTopology((2, 1, 1))
    ex = HaloExchange(grid, topo, SimComm(topo.size))
    x, views = stacked_fields(grid, 2)
    b, _ = stacked_fields(grid, 2)
    ex.exchange(0, [x, b])
    ex.exchange(0, [x])
    pair, single = ex._bound[2][0], ex._bound[1][0]
    assert isinstance(pair, native.ExchangeCall) and isinstance(single, native.ExchangeCall)
    before = native.call_counts()["exchange"]
    for _ in range(3):
        ex.exchange(1, [x, b])
        ex.exchange(1, [x])
    # the per-rank form of the same allocation is the same binding
    ex.exchange(1, [[view] for view in views])
    assert native.call_counts()["exchange"] - before == 7
    assert ex._bound[2][0] is pair and ex._bound[1][0] is single
    other, _ = stacked_fields(grid, 2)
    ex.exchange(0, [other])
    assert ex._bound[1][0] is not single and ex._bound[1][0].arrays[0] is other.data


def test_a_solve_copies_every_exchange_natively(native_backend):
    solver = GMGSolver(SolverConfig(global_cells=16, num_levels=2, rank_dims=(2, 1, 1)))
    before = native.call_counts()["exchange"]
    result = solver.solve()
    exchanges = sum(result.recorder.exchange_counts().values())
    assert exchanges > 0
    assert native.call_counts()["exchange"] - before == exchanges


# ----------------------------------------------------------------------
# refusals: each named, each leaving the NumPy path's bytes
# ----------------------------------------------------------------------
def refused(grid, fields, monkeypatch):
    """Exchange ``fields`` on one periodic rank of ``grid`` and return
    the binding's refusal reason, after checking the bytes against the
    NumPy path and the reason among :func:`native.fallback_reasons`."""
    monkeypatch.setattr(native, "_fallback_reasons", [])
    ex = HaloExchange(grid, CartTopology((1, 1, 1)), SimComm(1))
    copies = [BrickedArray(grid, f.data.copy(), f.data.dtype) for f in fields]
    before = native.call_counts()["exchange"]
    ex.exchange(0, fields)
    assert native.call_counts()["exchange"] == before
    with numpy_path():
        HaloExchange(grid, CartTopology((1, 1, 1)), SimComm(1)).exchange(0, copies)
    assert [f.data.tobytes() for f in fields] == [f.data.tobytes() for f in copies]
    (call, _, _), = ex._bound.values()
    assert isinstance(call, native.Refusal)
    assert call.reason in native.fallback_reasons()
    return call.reason


def random_field(grid, dtype, seed=0):
    rng = np.random.default_rng(seed)
    shape = (grid.num_slots, *(grid.brick_dim,) * 3)
    return BrickedArray(grid, (rng.random(shape) * 100).astype(dtype), dtype)


def test_refuses_a_dtype_without_a_c_type(native_backend):
    """Fields hold floats (a ``BrickedArray`` takes nothing else); the
    binding says so of any other storage it is handed."""
    grid = BrickGrid((2, 2, 2), 2)
    rows = HaloExchange(grid, CartTopology((1, 1, 1)), SimComm(1)).plan.copy_rows(1)
    field = np.zeros((grid.num_slots, 2, 2, 2), dtype=np.int32)
    call = native.bind_exchange(native_backend, grid, [field], rows)
    assert call.reason == "no C type for field dtype int32"


def test_refuses_mixed_field_dtypes(native_backend):
    """The binding's own guard: one C copy moves one element type."""
    grid = BrickGrid((2, 2, 2), 2)
    rows = HaloExchange(grid, CartTopology((1, 1, 1)), SimComm(1)).plan.copy_rows(1)
    fields = [random_field(grid, np.float64), random_field(grid, np.float32, 1)]
    call = native.bind_exchange(native_backend, grid, [f.data for f in fields], rows)
    assert call.reason == "mixed field dtypes"


@pytest.mark.parametrize("path", ["native", "numpy"])
def test_exchange_refuses_mixed_field_dtypes_by_name(path):
    """Its accounting sizes every field by one itemsize, so an exchange
    of fp64 and fp32 fields would misreport its bytes: it is refused,
    naming both dtypes, whichever copy would have run."""
    grid = BrickGrid((2, 2, 2), 2)
    ex = HaloExchange(grid, CartTopology((2, 1, 1)), SimComm(2), Recorder())
    fields = [stacked_fields(grid, 2, dtype=dt)[0] for dt in (np.float64, np.float32)]
    with numpy_path() if path == "numpy" else nullcontext():
        with pytest.raises(ValueError, match=r"share a dtype: \['float32', 'float64'\]"):
            ex.exchange(0, fields)
    assert ex.recorder.messages == [] and ex.comm.ledger == {}


def test_refuses_fields_sharing_storage(native_backend, monkeypatch):
    grid = BrickGrid((2, 2, 2), 2)
    x = random_field(grid, np.float64)
    assert refused(grid, [x, x], monkeypatch) == "exchanged fields share storage"


def test_refuses_strided_storage(native_backend):
    grid = BrickGrid((2, 2, 2), 2)
    rows = HaloExchange(grid, CartTopology((1, 1, 1)), SimComm(1)).plan.copy_rows(1)
    wide = np.zeros((grid.num_slots, 2, 2, 4))
    call = native.bind_exchange(native_backend, grid, [wide[..., ::2]], rows)
    assert call.reason == "strided field storage"


@pytest.mark.parametrize(
    "bad", ["out of range", "negative", "int32", "three columns", "strided"]
)
def test_refuses_a_malformed_table(native_backend, bad):
    grid = BrickGrid((2, 2, 2), 2)
    rows = HaloExchange(grid, CartTopology((1, 1, 1)), SimComm(1)).plan.copy_rows(1)
    rows = {
        "out of range": rows + grid.num_slots,
        "negative": rows - grid.num_slots,
        "int32": rows.astype(np.int32),
        "three columns": np.zeros((len(rows), 3), dtype=np.int64),
        "strided": np.repeat(rows, 2, axis=0)[::2],
    }[bad]
    field = np.zeros((grid.num_slots, 2, 2, 2))
    call = native.bind_exchange(native_backend, grid, [field], rows)
    assert call.reason == (
        "copy table is not an in-range C-contiguous (n, 2) int64 table"
    )


def test_without_a_compiler_the_backend_reason_is_noted(monkeypatch):
    monkeypatch.setattr(native, "_fallback_reasons", [])
    grid = BrickGrid((2, 2, 2), 4)
    topo = CartTopology((2, 1, 1))
    x, _ = stacked_fields(grid, 2, np.arange(2 * grid.num_slots * 64.0).reshape(-1, 4, 4, 4))
    ex = HaloExchange(grid, topo, SimComm(topo.size))
    with numpy_path():
        ex.exchange(0, [x])
        ex.exchange(0, [x])
    (call, _, _), = ex._bound.values()
    assert call.reason == "NumPy kernels requested by the test"
    assert native.fallback_reasons() == (call.reason,)


# ----------------------------------------------------------------------
# accounting: one reference per exchange, expanded when read
# ----------------------------------------------------------------------
def test_planned_accounting_is_one_shared_run_per_exchange():
    """Exchangers over one plan record the plan's one tuple of events
    and bump one ledger multiplicity; the lists read back as every
    message in order."""
    grid = BrickGrid((2, 2, 2), 4)
    topo = CartTopology((2, 2, 1))
    recorder, comm = Recorder(), SimComm(topo.size)
    first = HaloExchange(grid, topo, comm, recorder)
    second = HaloExchange(grid, topo, comm, recorder)
    assert first.plan is second.plan
    x, _ = stacked_fields(grid, topo.size)
    for ex in (first, second, first):
        ex.exchange(2, [x])
    events, traffic = first.plan.accounting(2, 8, 1, 1, (0, 1, 2, 3))
    assert recorder._message_runs == [events] * 3
    assert all(run is events for run in recorder._message_runs)
    assert recorder.messages == list(events) * 3
    assert recorder.message_counts_by_level() == {2: 3 * len(events)}
    assert comm.ledger == {
        key: [3 * messages, 3 * nbytes, 0] for key, messages, nbytes in traffic
    }
    assert comm.sent_bytes == 3 * sum(nbytes for _, _, nbytes in traffic)
    assert comm.sent_messages == len(recorder.messages)

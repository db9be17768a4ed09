"""Declarative benchmark sweep orchestration: ``repro sweep``.

The measurement layer above a single solve used to be ~20 ad-hoc
``benchmarks/bench_*.py`` scripts, each hand-rolling timing loops,
JSON writing and quick-mode flags.  This module replaces that with one
declarative shape, in the spirit of the paper's own evaluation matrix
(brick size × kernel × scale):

* a :class:`SweepConfig` declares **axes** (brick size, communication
  avoiding, agglomeration threshold, machine model, scenario) whose
  cartesian product :func:`expand` turns into :class:`SweepCell`\\ s;
* :func:`run_sweep` executes every cell through the existing
  :class:`~repro.gmg.solver.GMGSolver` path with **warmup discard**
  and **interleaved repetition rounds** (cell A, B, C, … then again —
  shared-machine drift cancels instead of accruing to whichever cell
  runs last), collecting a full wallclock sample series per cell;
* every cell gets variance-aware statistics
  (:class:`~repro.perf.stats.SampleStats`: min/median/IQR, relative
  dispersion, Tukey-flagged outliers) **and its numerics** (V-cycle
  count, convergence factor, solve status) — a perf win that degrades
  convergence is visible in the same table;
* the result is a :class:`SweepReport` that renders as an ascii table,
  raw JSON (schema-versioned), and a self-contained HTML artifact,
  attributes deltas **per axis** against a declared baseline cell
  (which axis moved, by how much, and whether the move clears the two
  cells' measured noise floor), and lands every cell as a
  schema-versioned :class:`~repro.obs.ledger.LedgerEntry` under its own
  series (``sweep_<name>.<cell>``) so ``repro perfgate --series
  'sweep_<name>.*'`` gates the whole matrix with noise-scaled
  thresholds.

Configs are JSON files (see ``benchmarks/sweeps/``); YAML is accepted
when PyYAML happens to be installed, but nothing requires it.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import time
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path

from repro.obs.ledger import LedgerEntry
from repro.perf.stats import SampleStats

#: bump when the sweep-report JSON layout changes
SWEEP_SCHEMA_VERSION = 1

#: named problem presets an axis or the base config can reference;
#: a config's ``scenarios`` section can add to or override these
SCENARIOS: dict[str, dict] = {
    # the ROADMAP tier-1 model problem
    "tier1": dict(global_cells=32, num_levels=3, brick_dim=4),
    # the 8-rank tier-1 problem the commviz bench uses
    "tier1-distributed": dict(
        global_cells=32, num_levels=3, brick_dim=4, rank_dims=(2, 2, 2),
        max_vcycles=4,
    ),
    # small problems for CI smoke matrices
    "smoke": dict(
        global_cells=16, num_levels=2, brick_dim=4, max_smooths=6,
        bottom_smooths=20, max_vcycles=4,
    ),
    "smoke-distributed": dict(
        global_cells=16, num_levels=2, brick_dim=4, rank_dims=(2, 1, 1),
        max_smooths=6, bottom_smooths=20, max_vcycles=4,
    ),
    # non-periodic boundary variant (no machine model available)
    "dirichlet": dict(
        global_cells=16, num_levels=2, brick_dim=4, boundary="dirichlet",
        max_smooths=6, bottom_smooths=20,
    ),
}

#: axis keys with special resolution rules (everything else must name a
#: SolverConfig field)
_SPECIAL_AXES = ("scenario", "machine")


def _solver_field_names() -> set[str]:
    from repro.gmg import SolverConfig

    return {f.name for f in dataclass_fields(SolverConfig)}


def _validate_key(key: str) -> None:
    if key in _SPECIAL_AXES:
        return
    known = _solver_field_names()
    if key not in known:
        raise ValueError(
            f"unknown sweep axis {key!r}: must be one of "
            f"{sorted(_SPECIAL_AXES)} or a SolverConfig field "
            f"({sorted(known)})"
        )


@dataclass
class SweepConfig:
    """One declared sweep: a name, axes, and run parameters."""

    name: str
    axes: dict[str, list] = field(default_factory=dict)
    #: settings shared by every cell (same key space as the axes)
    base: dict = field(default_factory=dict)
    #: extra scenario presets, merged over the built-in :data:`SCENARIOS`
    scenarios: dict[str, dict] = field(default_factory=dict)
    #: the baseline cell's axis values (default: first value per axis)
    baseline: dict = field(default_factory=dict)
    #: discarded runs per cell before sampling starts
    warmup: int = 1
    #: interleaved repetition rounds (samples per cell)
    rounds: int = 5
    #: rounds under ``REPRO_BENCH_QUICK`` / ``--quick``
    quick_rounds: int = 2
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not re.fullmatch(r"[A-Za-z0-9._-]+", self.name):
            raise ValueError(
                f"sweep name must be a filesystem-safe token: {self.name!r}"
            )
        if not self.axes:
            raise ValueError("a sweep needs at least one axis")
        for key, values in self.axes.items():
            _validate_key(key)
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(
                    f"axis {key!r} must list at least one value: {values!r}"
                )
        for key in self.base:
            _validate_key(key)
        for key, value in self.baseline.items():
            if key not in self.axes:
                raise ValueError(
                    f"baseline key {key!r} is not a declared axis"
                )
            if value not in self.axes[key]:
                raise ValueError(
                    f"baseline value {value!r} is not on axis {key!r}"
                )
        if self.warmup < 0 or self.rounds < 1 or self.quick_rounds < 1:
            raise ValueError("warmup must be >= 0 and rounds >= 1")

    def baseline_axes(self) -> dict:
        """Every axis at its baseline value (declared or first-listed)."""
        return {
            key: self.baseline.get(key, values[0])
            for key, values in self.axes.items()
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "SweepConfig":
        known = {f.name for f in dataclass_fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown sweep config keys: {sorted(unknown)}")
        if "name" not in obj:
            raise ValueError("sweep config needs a 'name'")
        return cls(**obj)

    @classmethod
    def from_file(cls, path) -> "SweepConfig":
        path = Path(path)
        text = path.read_text()
        if path.suffix in (".yaml", ".yml"):
            try:
                import yaml
            except ImportError as exc:  # pragma: no cover - env dependent
                raise ValueError(
                    f"{path}: YAML configs need PyYAML; use JSON instead"
                ) from exc
            obj = yaml.safe_load(text)
        else:
            obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError(f"{path}: sweep config must be a mapping")
        return cls.from_dict(obj)


@dataclass(frozen=True)
class SweepCell:
    """One point of the expanded matrix, ready to run."""

    index: int
    label: str
    #: the declared axis values (what attribution groups by)
    axes: dict
    #: resolved SolverConfig keyword arguments
    solver_kwargs: dict
    #: machine-model name pricing this cell, or None
    machine: str | None = None


def _scenario_kwargs(name, scenarios: dict[str, dict]) -> dict:
    table = {**SCENARIOS, **scenarios}
    if name not in table:
        raise ValueError(
            f"unknown scenario {name!r}; known: {sorted(table)}"
        )
    return dict(table[name])


def _apply_setting(kwargs: dict, key: str, value, scenarios) -> str | None:
    """Fold one base/axis setting into solver kwargs.

    Returns the machine name when ``key == 'machine'`` (it is not a
    solver field), else None.
    """
    if key == "machine":
        return None if value in (None, "none") else str(value)
    if key == "scenario":
        # scenario fills defaults: explicit base/axis settings win, so
        # apply only keys not already pinned
        for k, v in _scenario_kwargs(value, scenarios).items():
            kwargs.setdefault(k, v)
        return None
    if key == "rank_dims" and isinstance(value, list):
        value = tuple(value)
    kwargs[key] = value
    return None


def _value_str(value) -> str:
    if isinstance(value, bool):
        return "on" if value else "off"
    if value is None:
        return "none"
    if isinstance(value, (list, tuple)):
        return "x".join(str(v) for v in value)
    return str(value)


def _cell_label(axes: dict) -> str:
    label = "_".join(f"{k}-{_value_str(v)}" for k, v in axes.items())
    return re.sub(r"[^A-Za-z0-9._-]", "", label)


def expand(config: SweepConfig) -> list[SweepCell]:
    """Cartesian-product the axes into runnable cells.

    Settings are resolved scenario < base < axis value (later wins),
    except scenarios, which only fill keys nothing else pinned.
    """
    keys = list(config.axes)
    cells = []
    for index, combo in enumerate(
        itertools.product(*(config.axes[k] for k in keys))
    ):
        axes = dict(zip(keys, combo))
        kwargs: dict = {}
        machine: str | None = None
        # axis values and base settings first (they win over scenarios);
        # scenario resolution last so it only fills the gaps
        deferred = []
        for key, value in {**config.base, **axes}.items():
            if key == "scenario":
                deferred.append(value)
                continue
            m = _apply_setting(kwargs, key, value, config.scenarios)
            if key == "machine":
                machine = m
        for scenario in deferred:
            _apply_setting(kwargs, "scenario", scenario, config.scenarios)
        cells.append(
            SweepCell(
                index=index,
                label=_cell_label(axes),
                axes=axes,
                solver_kwargs=kwargs,
                machine=machine,
            )
        )
    labels = [c.label for c in cells]
    if len(set(labels)) != len(labels):
        raise ValueError(f"expanded cell labels collide: {labels}")
    return cells


@dataclass
class CellResult:
    """One executed cell: samples, statistics, numerics, model price."""

    cell: SweepCell
    samples: list[float]
    stats: SampleStats
    status: str
    vcycles: int
    convergence_factor: float | None
    #: modelled wallclock on the cell's machine (ms), when priced
    model_ms: float | None = None

    @property
    def ok(self) -> bool:
        return self.status in ("converged", "max_vcycles")

    def to_json(self) -> dict:
        return {
            "label": self.cell.label,
            "axes": self.cell.axes,
            "machine": self.cell.machine,
            "status": self.status,
            "vcycles": self.vcycles,
            "convergence_factor": self.convergence_factor,
            "model_ms": self.model_ms,
            "wallclock_ms": self.stats.to_json(),
        }


@dataclass(frozen=True)
class AxisEffect:
    """One axis value's aggregate delta against the baseline value.

    Computed over every matched pair of cells that differ *only* on
    this axis; ``ratio`` is the geometric mean of the pairwise
    median-wallclock ratios.  ``noise_floor`` is the largest relative
    IQR among the involved cells — the effect is ``significant`` only
    when it clears that measured noise, the same philosophy the
    noise-scaled perfgate applies.
    """

    axis: str
    value: str
    baseline_value: str
    ratio: float
    pairs: int
    noise_floor: float

    @property
    def delta_pct(self) -> float:
        return (self.ratio - 1.0) * 100.0

    @property
    def significant(self) -> bool:
        return abs(self.ratio - 1.0) > self.noise_floor

    def to_json(self) -> dict:
        return {
            "axis": self.axis,
            "value": self.value,
            "baseline_value": self.baseline_value,
            "ratio": self.ratio,
            "delta_pct": self.delta_pct,
            "pairs": self.pairs,
            "noise_floor": self.noise_floor,
            "significant": self.significant,
        }


def _axis_effects(
    config: SweepConfig, results: list[CellResult]
) -> list[AxisEffect]:
    by_axes = {tuple(sorted(r.cell.axes.items())): r for r in results}
    base_axes = config.baseline_axes()
    effects = []
    for axis, values in config.axes.items():
        base_value = base_axes[axis]
        for value in values:
            if value == base_value:
                continue
            ratios, floors = [], []
            for r in results:
                if r.cell.axes[axis] != value:
                    continue
                partner_axes = {**r.cell.axes, axis: base_value}
                partner = by_axes.get(tuple(sorted(partner_axes.items())))
                if partner is None or partner.stats.median <= 0:
                    continue
                ratios.append(r.stats.median / partner.stats.median)
                floors.append(max(r.stats.rel_iqr, partner.stats.rel_iqr))
            if not ratios:
                continue
            gm = math.exp(sum(math.log(x) for x in ratios) / len(ratios))
            effects.append(
                AxisEffect(
                    axis=axis,
                    value=_value_str(value),
                    baseline_value=_value_str(base_value),
                    ratio=gm,
                    pairs=len(ratios),
                    noise_floor=max(floors),
                )
            )
    return effects


@dataclass
class SweepReport:
    """Everything one sweep run produced, in every output form."""

    config: SweepConfig
    cells: list[CellResult]
    effects: list[AxisEffect]
    rounds: int
    quick: bool

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.cells)

    @property
    def baseline_label(self) -> str:
        return _cell_label(self.config.baseline_axes())

    # ------------------------------------------------------------------
    # ledger
    # ------------------------------------------------------------------
    def ledger_entries(self) -> list[LedgerEntry]:
        """One schema-versioned entry per cell, each in its own series.

        Series names are ``sweep_<name>.<cell-label>`` so ``repro
        perfgate --series 'sweep_<name>.*'`` gates the whole matrix;
        metrics carry wallclock (min and median) *and* the numerics
        (V-cycle count, convergence factor — both lower-is-better), so
        a perf win that costs convergence trips the same gate.
        """
        entries = []
        for r in self.cells:
            metrics = {
                "wallclock_ms": round(r.stats.minimum * 1e3, 3),
                "wallclock_ms.median": round(r.stats.median * 1e3, 3),
                "vcycles": float(r.vcycles),
            }
            if r.convergence_factor is not None:
                metrics["convergence_factor"] = round(
                    r.convergence_factor, 6
                )
            entries.append(
                LedgerEntry(
                    benchmark=f"sweep_{self.config.name}.{r.cell.label}",
                    metrics=metrics,
                    source="sweep",
                    context={
                        "sweep": self.config.name,
                        "axes": r.cell.axes,
                        "status": r.status,
                        "stats": r.stats.to_json(),
                        "model_ms": r.model_ms,
                        "rounds": self.rounds,
                        "warmup": self.config.warmup,
                        "quick": self.quick,
                    },
                )
            )
        return entries

    # ------------------------------------------------------------------
    # renderers
    # ------------------------------------------------------------------
    def render(self) -> str:
        """The ascii report: per-cell table, attribution, median plot."""
        cfg = self.config
        axes_desc = " x ".join(
            f"{k}[{len(v)}]" for k, v in cfg.axes.items()
        )
        lines = [
            f"sweep '{cfg.name}': {len(self.cells)} cells ({axes_desc}), "
            f"{self.rounds} interleaved rounds after {cfg.warmup} warmup"
            + (" [quick]" if self.quick else ""),
            f"baseline cell: {self.baseline_label}",
            "",
            f"  {'cell':<42}{'min ms':>9}{'med ms':>9}{'IQR':>8}"
            f"{'rel%':>6}{'out':>4}{'vcyc':>5}{'conv':>7}{'model':>9}"
            "  status",
        ]
        for r in self.cells:
            s = r.stats
            conv = (
                f"{r.convergence_factor:.3f}"
                if r.convergence_factor is not None else "-"
            )
            model = f"{r.model_ms:.1f}" if r.model_ms is not None else "-"
            lines.append(
                f"  {r.cell.label:<42}{s.minimum * 1e3:>9.1f}"
                f"{s.median * 1e3:>9.1f}{s.iqr * 1e3:>8.2f}"
                f"{s.rel_iqr * 100:>6.1f}{len(s.outliers):>4d}"
                f"{r.vcycles:>5d}{conv:>7}{model:>9}  {r.status}"
            )
        lines.append("")
        if self.effects:
            lines.append(
                "axis attribution (geo-mean median ratio vs baseline "
                "value, matched pairs only):"
            )
            lines.append(
                f"  {'axis':<24}{'value':<16}{'delta':>9}{'pairs':>7}"
                f"{'noise':>8}  verdict"
            )
            for e in self.effects:
                verdict = "significant" if e.significant else "within noise"
                lines.append(
                    f"  {e.axis:<24}{e.value:<16}{e.delta_pct:>+8.1f}%"
                    f"{e.pairs:>7d}{e.noise_floor * 100:>7.1f}%  {verdict}"
                )
        else:
            lines.append("axis attribution: no matched pairs (single cell?)")
        medians = [r.stats.median * 1e3 for r in self.cells]
        if len(medians) >= 2 and min(medians) > 0:
            from repro.harness.ascii_plot import ascii_plot

            lines.append("")
            lines.append("median wallclock by cell index (ms):")
            lines.append(
                ascii_plot(
                    {"median ms": (list(range(1, len(medians) + 1)), medians)},
                    logx=False,
                    logy=False,
                    x_label="cell index (table order)",
                    y_label="median ms",
                    height=10,
                )
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "schema": SWEEP_SCHEMA_VERSION,
            "name": self.config.name,
            "description": self.config.description,
            "axes": self.config.axes,
            "baseline": self.config.baseline_axes(),
            "baseline_label": self.baseline_label,
            "rounds": self.rounds,
            "warmup": self.config.warmup,
            "quick": self.quick,
            "ok": self.ok,
            "cells": [r.to_json() for r in self.cells],
            "attribution": [e.to_json() for e in self.effects],
        }

    def to_html(self) -> str:
        """A self-contained HTML artifact (inline CSS, no scripts)."""
        def esc(s) -> str:
            return (
                str(s)
                .replace("&", "&amp;")
                .replace("<", "&lt;")
                .replace(">", "&gt;")
            )

        max_med = max((r.stats.median for r in self.cells), default=0.0)
        cell_rows = []
        for r in self.cells:
            s = r.stats
            width = (
                int(100 * s.median / max_med) if max_med > 0 else 0
            )
            conv = (
                f"{r.convergence_factor:.3f}"
                if r.convergence_factor is not None else "–"
            )
            model = f"{r.model_ms:.1f}" if r.model_ms is not None else "–"
            bar = (
                f'<div class="bar" style="width:{width}%"></div>'
            )
            cls = "" if r.ok else ' class="bad"'
            cell_rows.append(
                f"<tr{cls}><td>{esc(r.cell.label)}</td>"
                f"<td>{s.minimum * 1e3:.1f}</td>"
                f"<td>{s.median * 1e3:.1f}{bar}</td>"
                f"<td>{s.iqr * 1e3:.2f}</td>"
                f"<td>{s.rel_iqr * 100:.1f}%</td>"
                f"<td>{len(s.outliers)}</td>"
                f"<td>{r.vcycles}</td><td>{conv}</td>"
                f"<td>{model}</td><td>{esc(r.status)}</td></tr>"
            )
        effect_rows = [
            f"<tr><td>{esc(e.axis)}</td><td>{esc(e.value)}</td>"
            f"<td>{esc(e.baseline_value)}</td>"
            f"<td>{e.delta_pct:+.1f}%</td><td>{e.pairs}</td>"
            f"<td>{e.noise_floor * 100:.1f}%</td>"
            f"<td>{'significant' if e.significant else 'within noise'}"
            "</td></tr>"
            for e in self.effects
        ]
        return f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>sweep {esc(self.config.name)}</title>
<style>
body {{ font: 14px/1.4 system-ui, sans-serif; margin: 2em; color: #222; }}
h1 {{ font-size: 1.3em; }} h2 {{ font-size: 1.1em; margin-top: 1.5em; }}
table {{ border-collapse: collapse; width: 100%; }}
th, td {{ border: 1px solid #ccc; padding: 4px 8px; text-align: right;
  font-variant-numeric: tabular-nums; }}
th:first-child, td:first-child {{ text-align: left; font-family: monospace; }}
th {{ background: #f0f0f0; }}
td {{ position: relative; }}
.bar {{ position: absolute; left: 0; bottom: 0; height: 3px;
  background: #4a90d9; }}
tr.bad td {{ background: #fde8e8; }}
.meta {{ color: #666; }}
</style></head><body>
<h1>sweep '{esc(self.config.name)}' — {len(self.cells)} cells</h1>
<p class="meta">{esc(self.config.description)}</p>
<p class="meta">baseline cell <code>{esc(self.baseline_label)}</code>;
{self.rounds} interleaved rounds after {self.config.warmup} warmup
{"(quick mode)" if self.quick else ""}; schema v{SWEEP_SCHEMA_VERSION}</p>
<h2>cells</h2>
<table><tr><th>cell</th><th>min ms</th><th>median ms</th><th>IQR ms</th>
<th>rel IQR</th><th>outliers</th><th>V-cycles</th><th>conv. factor</th>
<th>model ms</th><th>status</th></tr>
{"".join(cell_rows)}
</table>
<h2>axis attribution (vs baseline)</h2>
<table><tr><th>axis</th><th>value</th><th>baseline</th><th>delta</th>
<th>pairs</th><th>noise floor</th><th>verdict</th></tr>
{"".join(effect_rows) or '<tr><td colspan="7">no matched pairs</td></tr>'}
</table>
</body></html>
"""


def run_sweep(
    config: SweepConfig,
    quick: bool = False,
    rounds: int | None = None,
    progress=None,
) -> SweepReport:
    """Expand and execute ``config``; return the full report.

    ``progress`` (e.g. ``print``) receives one line per cell as rounds
    complete.  Solves that diverge or fail record their status and a
    single sample rather than raising — a broken cell must not take
    the rest of the matrix down with it.
    """
    from repro.gmg import GMGSolver, SolverConfig
    from repro.gmg.solver import estimate_solve_time

    cells = expand(config)
    n_rounds = rounds or (config.quick_rounds if quick else config.rounds)
    samples: dict[int, list[float]] = {c.index: [] for c in cells}
    last_result: dict[int, object] = {}

    def one_run(cell: SweepCell) -> float:
        solver = GMGSolver(SolverConfig(**cell.solver_kwargs))
        t0 = time.perf_counter()
        result = solver.solve()
        dt = time.perf_counter() - t0
        last_result[cell.index] = result
        return dt

    for cell in cells:
        for _ in range(config.warmup):
            one_run(cell)
    for round_idx in range(n_rounds):
        for cell in cells:
            samples[cell.index].append(one_run(cell))
        if progress is not None:
            progress(
                f"  round {round_idx + 1}/{n_rounds} complete "
                f"({len(cells)} cells)"
            )

    results = []
    for cell in cells:
        result = last_result[cell.index]
        cf = result.convergence_factor
        model_ms = None
        if cell.machine is not None:
            from repro.machines import MACHINES

            try:
                model_ms = (
                    estimate_solve_time(
                        SolverConfig(**cell.solver_kwargs),
                        MACHINES[cell.machine],
                        max(result.num_vcycles, 1),
                    )
                    * 1e3
                )
            except (ValueError, KeyError):
                model_ms = None
        results.append(
            CellResult(
                cell=cell,
                samples=samples[cell.index],
                stats=SampleStats.from_samples(samples[cell.index]),
                status=result.status,
                vcycles=result.num_vcycles,
                convergence_factor=(
                    cf if cf is not None and math.isfinite(cf) else None
                ),
                model_ms=model_ms,
            )
        )
    return SweepReport(
        config=config,
        cells=results,
        effects=_axis_effects(config, results),
        rounds=n_rounds,
        quick=quick,
    )

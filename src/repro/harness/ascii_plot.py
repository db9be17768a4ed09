"""ASCII rendering of a rank x rank matrix for ``repro commviz``."""

from __future__ import annotations


def _format_cell(value: float) -> str:
    """Compact human form: integers verbatim below 10^6, else 3-sig-fig
    engineering-ish notation (``2.36e+06``)."""
    if float(value) == int(value) and abs(value) < 1e6:
        return str(int(value))
    return f"{float(value):.3g}"


def ascii_matrix(
    matrix,
    title: str = "",
    row_label: str = "src",
    col_label: str = "dst",
) -> str:
    """Render a 2-D numeric matrix as an aligned character table.

    Rows are ``row_label`` (e.g. sending rank), columns ``col_label``
    (receiving rank) — the rank x rank traffic-matrix presentation of
    ``repro commviz``.  Zero cells print as ``.`` so sparse
    communication patterns (face neighbours only) read at a glance.
    """
    rows = [list(r) for r in matrix]
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("matrix must be rectangular and non-empty")
    ncols = len(rows[0])
    cells = [
        ["." if float(v) == 0 else _format_cell(v) for v in row] for row in rows
    ]
    headers = [f"{col_label}{j}" for j in range(ncols)]
    widths = [
        max(len(headers[j]), max(len(cells[i][j]) for i in range(len(rows))))
        for j in range(ncols)
    ]
    stub = max(len(f"{row_label}{len(rows) - 1}"), len(row_label))
    lines = [title] if title else []
    lines.append(
        " " * stub
        + "  "
        + "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    )
    for i, row in enumerate(cells):
        lines.append(
            f"{row_label}{i}".ljust(stub)
            + "  "
            + "  ".join(c.rjust(w) for c, w in zip(row, widths))
        )
    return "\n".join(lines) + "\n"


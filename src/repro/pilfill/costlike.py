"""Structural type of the per-column cost tables the solvers consume.

Two concrete classes satisfy it: :class:`~repro.pilfill.costs.ColumnCosts`
(the engine's in-process tables, wrapping a full
:class:`~repro.pilfill.columns.SlackColumn`) and
:class:`~repro.pilfill.costs.PayloadColumnCosts` (the compact picklable
view shipped to pool workers). The solvers only read the members declared
here, so they accept either — this module pins that contract as a
:class:`typing.Protocol` instead of a docstring.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.pilfill.columns import ColumnNeighbor


class ColumnLike(Protocol):
    """Electrical view of one slack column (geometry-free)."""

    @property
    def gap_um(self) -> float | None: ...

    @property
    def below(self) -> ColumnNeighbor | None: ...

    @property
    def above(self) -> ColumnNeighbor | None: ...

    @property
    def has_impact(self) -> bool: ...

    def resistance_weight(self, weighted: bool) -> float: ...


class ColumnCostsLike(Protocol):
    """Cost tables of one column, as read by the tile solvers."""

    @property
    def column(self) -> ColumnLike: ...

    @property
    def exact(self) -> tuple[float, ...]: ...

    @property
    def linear(self) -> tuple[float, ...]: ...

    @property
    def capacity(self) -> int: ...


#: What every per-tile solver takes: one cost table per slack column.
TileCosts = Sequence[ColumnCostsLike]

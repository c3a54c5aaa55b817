"""Method-agnostic delay-impact scorer.

Every method — Normal, ILP-I, ILP-II, Greedy — is scored by
:class:`ImpactModel`, mirroring the paper's Tables 1-2 where all methods
are measured by the same τ. The model:

1. runs the full-layout (definition III) sweep once, at construction, to
   find every gap block and its true neighboring lines, and indexes the
   blocks for point location;
2. buckets each placement's fill features into physical gap columns (same
   site-grid column, same block) — recombining features that per-tile
   solvers placed independently in the same physical stack;
3. applies the *exact* capacitance model (Eq. 5) to each column's total
   feature count; and
4. charges each adjacent line the Elmore increment at the column position,
   both unweighted (per wire segment) and sink-weighted.

Because grouping is global, the scorer correctly penalizes the
fine-dissection regime where per-tile solvers underestimate stacked
columns — the effect the paper discusses in Section 6.

:func:`evaluate_impact` is the one-shot form (build a model, score one
placement). Callers that score several placements of one layout — the
experiment harness scoring each method of a configuration, local search,
what-if loops — build one model and call :meth:`ImpactModel.score` per
placement, paying the sweep once. Point location is memoized by feature
rectangle; bucketing and Eq. 5 run as array ops (``np.unique`` +
``bincount`` + one vectorized ΔC pass), and only the per-*column* Elmore
charging remains a Python loop.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.errors import FillError
from repro.geometry import GridBinIndex, Rect
from repro.layout.layout import FillFeature, RoutedLayout
from repro.layout.rctree import OHM_FF_TO_PS
from repro.pilfill.scanline import GapBlock, layer_sweep_lines, sweep_gap_blocks
from repro.tech.rules import FillRules
from repro.units import EPS0_FF_PER_UM, ps_to_ns

#: Columns per block are keyed ``block_id * 2**32 + grid_column`` so one
#: int64 sort recovers the (block, column) lexicographic bucket order.
_COLUMN_KEY_STRIDE = 1 << 32


@dataclass
class ImpactReport:
    """Total and per-net delay impact of a fill placement.

    Delays in picoseconds; helpers convert to the paper's ns.
    """

    total_ps: float = 0.0
    weighted_total_ps: float = 0.0
    per_net_ps: dict[str, float] = field(default_factory=dict)
    per_net_weighted_ps: dict[str, float] = field(default_factory=dict)
    features_scored: int = 0
    features_free: int = 0  # features in boundary gaps (no coupling change)
    columns: int = 0

    @property
    def total_ns(self) -> float:
        return ps_to_ns(self.total_ps)

    @property
    def weighted_total_ns(self) -> float:
        return ps_to_ns(self.weighted_total_ps)


def column_delta_caps(
    gaps_um: np.ndarray,
    counts: np.ndarray,
    eps_r: float,
    thickness_um: float,
    fill_width_um: float,
) -> np.ndarray:
    """Vectorized Eq. 5: ΔC (fF) for many columns at once.

    ``gaps_um[i]`` is column ``i``'s line gap and ``counts[i]`` its total
    feature count. Entries are bit-identical to
    :func:`repro.cap.fillimpact.exact_column_cap` called per column.
    """
    counts = np.asarray(counts, dtype=np.float64)
    gaps_um = np.asarray(gaps_um, dtype=np.float64)
    remaining = gaps_um - counts * fill_width_um
    if (remaining <= 0).any():
        i = int(np.argmax(remaining <= 0))
        raise FillError(
            f"{int(counts[i])} features of width {fill_width_um} do not fit "
            f"in gap {gaps_um[i]}"
        )
    base = EPS0_FF_PER_UM * eps_r * thickness_um * fill_width_um
    delta = base * (1.0 / remaining - 1.0 / gaps_um)
    delta[counts == 0] = 0.0
    return delta


@dataclass(frozen=True)
class _ColumnState:
    block_id: int
    col: int


class ImpactModel:
    """Delay-impact scorer for one layer of one layout.

    Construction runs the sweep and indexes the gap blocks; each
    :meth:`score` then costs O(features). The geometry the model was
    built from is exposed read-only (:attr:`blocks`, :attr:`horizontal`,
    :attr:`eps_r`, :attr:`thickness_um`, :attr:`dbu`, :attr:`fill_w_um`)
    for optimizers that price columns themselves.
    """

    def __init__(self, layout: RoutedLayout, layer: str, rules: FillRules):
        self.layout = layout
        self.layer = layer
        self.rules = rules
        lines, self._horizontal = layer_sweep_lines(layout, layer)
        self._blocks = tuple(sweep_gap_blocks(lines, layout.die, self._horizontal))
        bin_size = max(1, max(layout.die.width, layout.die.height) // 32)
        self._index: GridBinIndex[int] = GridBinIndex(bin_size)
        for i, block in enumerate(self._blocks):
            if self._horizontal:
                rect = Rect(block.along.lo, block.cross_lo, block.along.hi, block.cross_hi)
            else:
                rect = Rect(block.cross_lo, block.along.lo, block.cross_hi, block.along.hi)
            if not rect.is_empty():
                self._index.insert(rect, i)
        proc = layout.stack.layer(layer)
        self._eps_r = proc.eps_r
        self._thickness_um = proc.thickness_um
        self._dbu = layout.stack.dbu_per_micron
        self._fill_w_um = rules.fill_size / self._dbu
        # locate() depends only on the feature rectangle, and Rect is
        # frozen/hashable — memoizing by rect makes repeated scoring pay
        # the spatial query once per site instead of once per call.
        # Writes go through the lock so threads may share one model
        # (reads stay lock-free: entries are immutable and never
        # invalidated).
        self._lock = threading.Lock()
        self._locate_cache: dict[Rect, _ColumnState] = {}

    @property
    def blocks(self) -> tuple[GapBlock, ...]:
        """Gap blocks of the full-layout sweep, indexed by ``block_id``."""
        return self._blocks

    @property
    def horizontal(self) -> bool:
        """Whether the layer routes horizontally (``along`` is x)."""
        return self._horizontal

    @property
    def eps_r(self) -> float:
        """Relative permittivity of the layer's dielectric."""
        return self._eps_r

    @property
    def thickness_um(self) -> float:
        """Metal thickness of the layer (µm)."""
        return self._thickness_um

    @property
    def dbu(self) -> int:
        """Database units per micron."""
        return self._dbu

    @property
    def fill_w_um(self) -> float:
        """Fill feature width (µm)."""
        return self._fill_w_um

    @property
    def block_count(self) -> int:
        """Number of gap blocks in the model."""
        return len(self._blocks)

    def locate(self, feature: FillFeature) -> _ColumnState:
        """Column identity (block + along-axis column) of a feature.

        Memoized by ``feature.rect``; the cache never invalidates because
        the gap-block structure is fixed at construction.
        """
        cached = self._locate_cache.get(feature.rect)
        if cached is not None:
            return cached
        center = feature.rect.center
        along_c = center.x if self._horizontal else center.y
        cross_c = center.y if self._horizontal else center.x
        for i in self._index.query(Rect(center.x, center.y, center.x + 1, center.y + 1)):
            block = self._blocks[i]
            if block.along.contains(along_c) and block.cross_lo <= cross_c < block.cross_hi:
                state = _ColumnState(block_id=i, col=along_c // self.rules.pitch)
                with self._lock:
                    self._locate_cache[feature.rect] = state
                return state
        raise FillError(f"fill feature at {feature.rect} lies on active geometry")

    def score(self, features: list[FillFeature]) -> ImpactReport:
        """Score a placement on the model's layer. See module docstring.

        Features on other layers are ignored.
        """
        report = ImpactReport()
        relevant = [f for f in features if f.layer == self.layer]
        if not relevant:
            return report
        states = [self.locate(f) for f in relevant]
        block_ids = np.array([s.block_id for s in states], dtype=np.int64)
        cols = np.array([s.col for s in states], dtype=np.int64)
        alongs = np.array(
            [f.rect.center.x if self._horizontal else f.rect.center.y for f in relevant],
            dtype=np.int64,
        )

        # Bucket features by (block, along-axis grid column) with one sort:
        # np.unique returns keys sorted, i.e. (block_id, col) lexicographic.
        keys = block_ids * _COLUMN_KEY_STRIDE + cols
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        m_per_col = np.bincount(inverse)
        along_sums = np.bincount(inverse, weights=alongs).astype(np.int64)
        col_blocks = (unique_keys // _COLUMN_KEY_STRIDE).astype(np.int64)
        centers = along_sums // m_per_col

        # Vectorized Eq. 5 over the impactful columns.
        coupled = np.array(
            [self._blocks[b].below is not None and self._blocks[b].above is not None
             for b in col_blocks]
        )
        delta_c = np.zeros(len(unique_keys), dtype=np.float64)
        if coupled.any():
            gaps_um = (
                np.array([self._blocks[b].gap for b in col_blocks[coupled]], dtype=np.int64)
                / self._dbu
            )
            delta_c[coupled] = column_delta_caps(
                gaps_um, m_per_col[coupled], self._eps_r, self._thickness_um, self._fill_w_um
            )

        # Charge the Elmore increments column by column (columns ≪ features),
        # each sweep line's delay straight into the report.
        report.columns = len(unique_keys)
        for i in range(len(unique_keys)):
            m = int(m_per_col[i])
            if not coupled[i]:
                report.features_free += m
                continue
            block = self._blocks[int(col_blocks[i])]
            center_along = int(centers[i])
            dc = float(delta_c[i])
            for sweep_line in (block.below, block.above):
                timing = sweep_line.timing
                if timing is None:
                    continue
                delay = timing.resistance_at(center_along) * dc * OHM_FF_TO_PS
                net = timing.segment.net
                report.total_ps += delay
                report.weighted_total_ps += delay * timing.downstream_sinks
                report.per_net_ps[net] = report.per_net_ps.get(net, 0.0) + delay
                report.per_net_weighted_ps[net] = (
                    report.per_net_weighted_ps.get(net, 0.0) + delay * timing.downstream_sinks
                )
            report.features_scored += m
        report.features_scored += report.features_free
        return report

    def marginal_cost_ps(
        self, feature: FillFeature, existing: list[FillFeature] | None = None
    ) -> float:
        """Weighted delay increase of adding ``feature`` on top of
        ``existing`` (which may share its column — the nonlinearity is
        respected). Like :meth:`score`, a feature on another layer costs
        nothing."""
        if feature.layer != self.layer:
            return 0.0
        state = self.locate(feature)
        column = [
            f for f in (existing or []) if f.layer == self.layer and self.locate(f) == state
        ]
        before = self.score(column).weighted_total_ps
        return self.score([*column, feature]).weighted_total_ps - before


def evaluate_impact(
    layout: RoutedLayout,
    layer: str,
    features: list[FillFeature],
    rules: FillRules,
) -> ImpactReport:
    """Score one fill placement on one layer with a one-shot
    :class:`ImpactModel`. A placement with no feature on ``layer`` scores
    zero without running the sweep."""
    if not any(f.layer == layer for f in features):
        return ImpactReport()
    return ImpactModel(layout, layer, rules).score(features)

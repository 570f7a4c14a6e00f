"""Cell topologies: adjacency plus (for 1-D) road geometry.

The paper indexes each cell's neighbours from the cell's own point of
view (Figure 2); here cells carry global ids and a topology answers
``neighbors(cell_id)``.  Two families are provided:

* :class:`LinearTopology` — the paper's evaluation substrate (§5.1): 10
  cells of 1 km along a straight road, optionally closed into a ring so
  that border cells see the same traffic as inner ones.
* :class:`HexTopology` — a 2-D hexagonal grid for the paper's stated
  future work (§7); used by the 2-D extension scenario.
"""

from __future__ import annotations

from typing import Protocol, Sequence


class Topology(Protocol):
    """Minimal interface the rest of the library needs from a topology."""

    @property
    def num_cells(self) -> int: ...

    def neighbors(self, cell_id: int) -> Sequence[int]: ...


class LinearTopology:
    """Cells along a straight road, optionally wrapped into a ring.

    Parameters
    ----------
    num_cells:
        Number of cells on the road (paper assumption A1: 10).
    cell_diameter_km:
        Length of road covered by each cell (A1: 1 km).
    ring:
        If true, cell ``n-1`` is adjacent to cell ``0`` and mobile
        positions wrap around (paper §5.1 connects cells <1> and <10>
        to avoid border effects; Table 3 uses the open line instead).
    """

    def __init__(
        self,
        num_cells: int,
        cell_diameter_km: float = 1.0,
        ring: bool = True,
    ) -> None:
        if num_cells < 2:
            raise ValueError("a road needs at least two cells")
        if cell_diameter_km <= 0:
            raise ValueError("cell diameter must be positive")
        self._num_cells = num_cells
        self.cell_diameter_km = float(cell_diameter_km)
        self.ring = ring
        self.road_length_km = num_cells * self.cell_diameter_km

    @property
    def num_cells(self) -> int:
        return self._num_cells

    def neighbors(self, cell_id: int) -> tuple[int, ...]:
        """Adjacent cell ids (1 or 2 in a line, 2 in a ring of >= 3)."""
        self._check(cell_id)
        if self.ring:
            left = (cell_id - 1) % self._num_cells
            right = (cell_id + 1) % self._num_cells
            # A two-cell ring has a single distinct neighbour.
            return (left,) if left == right else (left, right)
        result = []
        if cell_id > 0:
            result.append(cell_id - 1)
        if cell_id < self._num_cells - 1:
            result.append(cell_id + 1)
        return tuple(result)

    # ------------------------------------------------------------------
    # road geometry (used by the 1-D mobility model)
    # ------------------------------------------------------------------
    def cell_of_position(self, position_km: float) -> int:
        """Cell covering road position ``position_km``."""
        if self.ring:
            position_km %= self.road_length_km
        if not 0 <= position_km <= self.road_length_km:
            raise ValueError(
                f"position {position_km} outside road"
                f" [0, {self.road_length_km}]"
            )
        cell = int(position_km / self.cell_diameter_km)
        return min(cell, self._num_cells - 1)

    def cell_span_km(self, cell_id: int) -> tuple[float, float]:
        """Road interval ``[lo, hi)`` covered by ``cell_id``."""
        self._check(cell_id)
        lo = cell_id * self.cell_diameter_km
        return lo, lo + self.cell_diameter_km

    def wrap_position(self, position_km: float) -> float:
        """Normalise a position onto the road (modulo length on a ring)."""
        if self.ring:
            return position_km % self.road_length_km
        return position_km

    def off_road(self, position_km: float) -> bool:
        """True when a mobile has driven past either end of an open road."""
        if self.ring:
            return False
        return position_km < 0 or position_km >= self.road_length_km

    def _check(self, cell_id: int) -> None:
        if not 0 <= cell_id < self._num_cells:
            raise ValueError(f"cell id {cell_id} out of range")


class HexTopology:
    """A rows x cols hexagonal grid (odd-row offset layout).

    Each interior cell has 6 neighbours, matching the classic cellular
    layout sketched in Figure 2(b).  Optionally toroidal to avoid border
    effects in synthetic workloads.
    """

    _EVEN_ROW = ((+1, 0), (-1, 0), (0, -1), (0, +1), (-1, -1), (-1, +1))
    _ODD_ROW = ((+1, 0), (-1, 0), (0, -1), (0, +1), (+1, -1), (+1, +1))

    def __init__(self, rows: int, cols: int, wrap: bool = False) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("grid must be at least 1x1")
        if wrap and rows % 2:
            # Offset-coordinate hex grids only tile a torus when the
            # row count is even; an odd seam breaks adjacency symmetry.
            raise ValueError("a wrapped hex grid needs an even row count")
        self.rows = rows
        self.cols = cols
        self.wrap = wrap
        self._neighbors: list[tuple[int, ...]] = []
        for cell_id in range(rows * cols):
            self._neighbors.append(self._compute_neighbors(cell_id))

    @property
    def num_cells(self) -> int:
        return self.rows * self.cols

    def cell_id(self, row: int, col: int) -> int:
        """Global id of the cell at grid coordinates ``(row, col)``."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"({row}, {col}) outside {self.rows}x{self.cols}")
        return row * self.cols + col

    def coordinates(self, cell_id: int) -> tuple[int, int]:
        """Grid coordinates ``(row, col)`` of a cell."""
        if not 0 <= cell_id < self.num_cells:
            raise ValueError(f"cell id {cell_id} out of range")
        return divmod(cell_id, self.cols)

    def neighbors(self, cell_id: int) -> tuple[int, ...]:
        if not 0 <= cell_id < self.num_cells:
            raise ValueError(f"cell id {cell_id} out of range")
        return self._neighbors[cell_id]

    def _compute_neighbors(self, cell_id: int) -> tuple[int, ...]:
        row, col = divmod(cell_id, self.cols)
        offsets = self._ODD_ROW if row % 2 else self._EVEN_ROW
        found = []
        for column_delta, row_delta in offsets:
            neighbor_row = row + row_delta
            neighbor_col = col + column_delta
            if self.wrap:
                neighbor_row %= self.rows
                neighbor_col %= self.cols
            elif not (
                0 <= neighbor_row < self.rows and 0 <= neighbor_col < self.cols
            ):
                continue
            neighbor = neighbor_row * self.cols + neighbor_col
            if neighbor != cell_id and neighbor not in found:
                found.append(neighbor)
        return tuple(found)

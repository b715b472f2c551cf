"""Rectangular tiling of permutable bands (post-processing, Fig. 1).

As in the paper, the scheduler itself never chooses tile sizes: the
configuration (or the caller) provides them and the post-processing applies
rectangular tiling to the tilable bands found by the scheduler.  A band is
tilable when all its dimensions are mutually permutable, which Algorithm 1
guarantees by keeping every active dependence weakly satisfied at every
dimension of the band.

Tiling is described by a :class:`TilingSpec` that the code generator and the
machine model understand: for each tiled dimension it records the tile size.
The code generator introduces the corresponding tile loops (strip-mine +
interchange); the schedule rows themselves are left untouched, which keeps the
affine representation exact (no integer division is needed at this level).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..deps.dependence import Dependence
from ..model.schedule import Schedule

__all__ = ["TiledBand", "TilingSpec", "compute_tiling", "band_is_permutable"]

DEFAULT_TILE_SIZE = 32
MINIMUM_BAND_SIZE = 2


@dataclass(frozen=True)
class TiledBand:
    """One band selected for tiling: schedule dimensions and their tile sizes."""

    dimensions: tuple[int, ...]
    tile_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.dimensions) != len(self.tile_sizes):
            raise ValueError("one tile size is needed per tiled dimension")
        if any(size <= 0 for size in self.tile_sizes):
            raise ValueError("tile sizes must be positive")

    def size_for(self, dimension: int) -> int | None:
        for dim, size in zip(self.dimensions, self.tile_sizes):
            if dim == dimension:
                return size
        return None


@dataclass
class TilingSpec:
    """All bands to be tiled for one schedule."""

    bands: list[TiledBand] = field(default_factory=list)

    def size_for(self, dimension: int) -> int | None:
        for band in self.bands:
            size = band.size_for(dimension)
            if size is not None:
                return size
        return None


def band_is_permutable(
    schedule: Schedule, dimensions: Sequence[int], dependences: Sequence[Dependence]
) -> bool:
    """Check that every dependence has non-negative distance at every band dimension.

    Dependences carried before the band do not constrain it.
    """
    from .parallelism import carried_dimension

    if not dimensions:
        return True
    first = min(dimensions)
    for dependence in dependences:
        outer = carried_dimension(dependence, schedule)
        if outer is not None and outer < first:
            continue
        for dimension in dimensions:
            source_rows = schedule.rows_for(dependence.source)
            target_rows = schedule.rows_for(dependence.target)
            if dimension >= len(source_rows) or dimension >= len(target_rows):
                continue
            if not dependence.is_weakly_satisfied_by(
                source_rows[dimension], target_rows[dimension]
            ):
                return False
    return True


def compute_tiling(
    schedule: Schedule,
    dependences: Sequence[Dependence],
    tile_sizes: Sequence[int] = (),
) -> TilingSpec:
    """Select the bands to tile and assign tile sizes.

    ``tile_sizes`` are consumed in order across the tiled dimensions; when
    exhausted, the last one repeats (:data:`DEFAULT_TILE_SIZE` when none was
    given).  Bands of fewer than :data:`MINIMUM_BAND_SIZE` loops are not tiled
    (tiling a single loop is pure strip-mining and rarely useful on CPUs), and
    neither is a band the dependences do not let permute.
    """
    spec = TilingSpec()
    sizes = list(tile_sizes)
    cursor = 0
    for band_id in schedule.band_ids():
        members = schedule.band_members(band_id)
        # Constant (scalar) dimensions are never tiled.
        members = [dim for dim in members if not schedule.is_scalar_dim(dim)]
        if len(members) < MINIMUM_BAND_SIZE:
            continue
        if not band_is_permutable(schedule, members, dependences):
            continue
        band_sizes: list[int] = []
        for _ in members:
            if cursor < len(sizes):
                band_sizes.append(sizes[cursor])
                cursor += 1
            else:
                band_sizes.append(sizes[-1] if sizes else DEFAULT_TILE_SIZE)
        spec.bands.append(TiledBand(tuple(members), tuple(band_sizes)))
    return spec

"""A single MWSR (Multiple Writer Single Reader) channel.

Every ONI except the reader owns a bank of modulators on the channel's
waveguides; the reader owns the drop rings and photodetectors.  The channel
object knows, for every writer, the loss of its path to the reader (which
depends on the distance and on how many intermediate modulator banks are
crossed) and can therefore answer both worst-case questions (used by the
link designer, which must guarantee the BER for the farthest writer) and
per-writer questions (used by distance-aware laser-scaling studies, an
extension the paper lists as complementary work).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from ..config import DEFAULT_CONFIG, PaperConfig
from ..exceptions import ConfigurationError
from ..photonics.crosstalk import worst_case_crosstalk_ratio
from ..units import db_loss_to_transmission, db_to_linear
from .topology import RingTopology

__all__ = ["WriterPath", "MWSRChannel"]


@dataclass(frozen=True)
class WriterPath:
    """Loss budget of one writer's path to the channel reader."""

    writer: int
    reader: int
    distance_m: float
    intermediate_writers: int
    loss_db: float

    @property
    def transmission(self) -> float:
        """Linear power transmission of the path (useful signal)."""
        return db_loss_to_transmission(self.loss_db)


@dataclass
class MWSRChannel:
    """An MWSR channel: one reader ONI, every other ONI writes to it."""

    reader: int
    config: PaperConfig = field(default_factory=lambda: DEFAULT_CONFIG)
    topology: RingTopology | None = None

    def __post_init__(self) -> None:
        if self.topology is None:
            self.topology = RingTopology.from_config(self.config)
        if not 0 <= self.reader < self.topology.num_onis:
            raise ConfigurationError(
                f"reader index {self.reader} outside [0, {self.topology.num_onis - 1}]"
            )

    # ------------------------------------------------------------------ structure
    @property
    def writers(self) -> List[int]:
        """Indices of the ONIs writing on this channel."""
        return [i for i in range(self.topology.num_onis) if i != self.reader]

    @property
    def num_wavelengths(self) -> int:
        """Wavelengths carried by each of the channel's waveguides."""
        return self.config.num_wavelengths

    # ------------------------------------------------------------------ losses
    def _path_loss_db(self, distance_m: float, intermediate_writers: int) -> float:
        """Loss of a writer→reader path given its geometry.

        Mirrors :class:`repro.link.power_budget.LinkPowerBudget` but with the
        actual distance and intermediate-writer count of the specific writer
        instead of the worst case.
        """
        cfg = self.config
        waveguide_db = cfg.waveguide_loss_db_per_cm * distance_m * 100.0
        own_writer_db = (
            (cfg.num_wavelengths - 1) * cfg.ring_through_loss_db
            + cfg.modulator_insertion_loss_db
        )
        intermediate_db = intermediate_writers * cfg.num_wavelengths * cfg.ring_through_loss_db
        reader_db = (cfg.num_wavelengths - 1) * cfg.ring_through_loss_db + cfg.ring_drop_loss_db
        er = db_to_linear(cfg.extinction_ratio_db)
        er_penalty_db = -10.0 * math.log10(1.0 - 1.0 / er)
        return (
            cfg.mux_insertion_loss_db
            + waveguide_db
            + own_writer_db
            + intermediate_db
            + reader_db
            + er_penalty_db
        )

    def writer_path(self, writer: int) -> WriterPath:
        """Loss budget of one writer's path to the reader."""
        if writer == self.reader:
            raise ConfigurationError("the reader does not write on its own channel")
        distance = self.topology.downstream_distance(writer, self.reader)
        crossed = self.topology.onis_crossed(writer, self.reader)
        intermediate = len(crossed)
        loss = self._path_loss_db(distance, intermediate)
        return WriterPath(
            writer=writer,
            reader=self.reader,
            distance_m=distance,
            intermediate_writers=intermediate,
            loss_db=loss,
        )

    def all_writer_paths(self) -> Dict[int, WriterPath]:
        """Loss budgets of every writer on the channel."""
        return {writer: self.writer_path(writer) for writer in self.writers}

    def worst_case_path(self) -> WriterPath:
        """The highest-loss writer path (the one the laser must be sized for)."""
        return max(self.all_writer_paths().values(), key=lambda path: path.loss_db)

    @property
    def crosstalk_ratio(self) -> float:
        """Worst-case crosstalk ratio at the reader (same for every writer)."""
        return worst_case_crosstalk_ratio(self.config)

    # ------------------------------------------------------------------ bandwidth
    @property
    def raw_bandwidth_bits_per_s(self) -> float:
        """Raw channel bandwidth over all waveguides and wavelengths."""
        return (
            self.config.num_waveguides_per_channel
            * self.config.num_wavelengths
            * self.config.modulation_rate_hz
        )

    def effective_bandwidth_bits_per_s(self, code) -> float:
        """Useful bandwidth when the channel runs a given coding scheme."""
        return self.raw_bandwidth_bits_per_s * code.code_rate

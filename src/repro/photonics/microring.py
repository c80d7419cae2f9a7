"""Micro-ring resonator (MR) model.

The MR is the work-horse of the MWSR channel: in a writer it modulates the
optical carrier (ON state = resonance aligned with the signal, strong
absorption; OFF state = resonance detuned, signal passes with low loss), and
in the reader a passive MR drops the signal to a photodetector.  The paper's
Figure 3 plots exactly this: the Lorentzian through-port transmission of the
ring in ON and OFF states, whose depth difference at the signal wavelength
is the extinction ratio (6.9 dB from Rakowski et al.).

The model used here is the standard first-order (single-pole) all-pass /
add-drop Lorentzian response parameterised by the resonance wavelength, the
loaded quality factor and the on-resonance extinction:

``T_through(dl) = 1 - (1 - T_min) / (1 + (2 dl / FWHM)^2)``

with ``FWHM = lambda_res / Q`` and ``T_min`` the through transmission at
resonance.  The drop-port response is the complementary Lorentzian scaled by
the drop efficiency.  This reproduces both the modulation behaviour (Figure
3) and the adjacent-channel crosstalk needed by the Eq. 4 worst-case
crosstalk term.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError
from ..units import db_loss_to_transmission, db_to_linear, linear_to_db

__all__ = ["MicroringState", "MicroringResonator"]


class MicroringState(enum.Enum):
    """Modulation state of a ring: OFF lets light pass, ON absorbs/drops it."""

    OFF = "off"
    ON = "on"


@dataclass(frozen=True)
class MicroringResonator:
    """First-order Lorentzian micro-ring model.

    Parameters
    ----------
    resonance_wavelength_m:
        Resonance wavelength of the ring in its OFF (unbiased) state.
    quality_factor:
        Loaded quality factor; sets the linewidth FWHM = lambda / Q.
    extinction_ratio_db:
        Transmission ratio between OFF and ON states at the signal
        wavelength (paper: 6.9 dB).
    through_loss_db:
        Residual insertion loss of the OFF-state ring on a passing,
        off-resonance signal (per-ring "through" loss).
    drop_loss_db:
        Loss of the drop path when the ring routes light to a photodetector.
    on_state_shift_m:
        Resonance blue-shift applied in the ON state (electro-optic tuning);
        only used when evaluating spectra, the ON/OFF extinction at the
        signal wavelength is pinned to ``extinction_ratio_db``.
    drive_power_w:
        Electrical power of the modulator driver (P_MR = 1.36 mW in the
        paper).
    """

    resonance_wavelength_m: float = 1550e-9
    quality_factor: float = 9000.0
    extinction_ratio_db: float = 6.9
    through_loss_db: float = 0.005
    drop_loss_db: float = 1.0
    on_state_shift_m: float = 0.5e-9
    drive_power_w: float = 1.36e-3

    def __post_init__(self) -> None:
        if self.resonance_wavelength_m <= 0:
            raise ConfigurationError("resonance wavelength must be positive")
        if self.quality_factor <= 0:
            raise ConfigurationError("quality factor must be positive")
        if self.extinction_ratio_db <= 0:
            raise ConfigurationError("extinction ratio must be positive in dB")
        if self.through_loss_db < 0 or self.drop_loss_db < 0:
            raise ConfigurationError("losses must be non-negative in dB")

    # ------------------------------------------------------------------ derived
    @property
    def fwhm_m(self) -> float:
        """Full width at half maximum of the Lorentzian resonance."""
        return self.resonance_wavelength_m / self.quality_factor

    @property
    def extinction_ratio_linear(self) -> float:
        """Linear OFF/ON transmission ratio at the signal wavelength."""
        return float(db_to_linear(self.extinction_ratio_db))

    @property
    def off_state_transmission(self) -> float:
        """Through transmission of the OFF ring at the signal wavelength."""
        return db_loss_to_transmission(self.through_loss_db)

    @property
    def on_state_transmission(self) -> float:
        """Through transmission of the ON ring at the signal wavelength.

        Defined so OFF / ON equals the extinction ratio.
        """
        return self.off_state_transmission / self.extinction_ratio_linear

    # ------------------------------------------------------------------ spectra
    def _lorentzian(self, detuning_m: float | np.ndarray) -> float | np.ndarray:
        """Unit-height Lorentzian of the ring resonance."""
        x = 2.0 * np.asarray(detuning_m, dtype=float) / self.fwhm_m
        return 1.0 / (1.0 + x * x)

    def through_transmission(
        self, wavelength_m: float | np.ndarray, state: MicroringState = MicroringState.OFF
    ) -> float | np.ndarray:
        """Through-port power transmission at a wavelength for a given state.

        Far from resonance the transmission tends to the OFF-state insertion
        loss; at resonance it dips to the state's on-resonance transmission.
        """
        resonance = self.resonance_wavelength_m
        floor = self.off_state_transmission
        if state is MicroringState.ON:
            resonance = resonance - self.on_state_shift_m
            dip = self.on_state_transmission
        else:
            dip = floor / self.extinction_ratio_linear
        detuning = np.asarray(wavelength_m, dtype=float) - resonance
        shape = self._lorentzian(detuning)
        result = floor - (floor - dip) * shape
        if np.isscalar(wavelength_m):
            return float(result)
        return result

    def drop_transmission(self, wavelength_m: float | np.ndarray) -> float | np.ndarray:
        """Drop-port power transmission towards the photodetector.

        Peaks at the resonance wavelength with the configured drop loss and
        rolls off as a Lorentzian; this roll-off is what limits (but does not
        eliminate) adjacent-channel crosstalk.
        """
        peak = db_loss_to_transmission(self.drop_loss_db)
        detuning = np.asarray(wavelength_m, dtype=float) - self.resonance_wavelength_m
        result = peak * self._lorentzian(detuning)
        if np.isscalar(wavelength_m):
            return float(result)
        return result

    @property
    def signal_wavelength_m(self) -> float:
        """Wavelength of the optical carrier the ring modulates.

        Following the paper's Figure 3 convention the carrier sits at the
        ON-state resonance (the electro-optic shift aligns the ring with the
        signal to absorb it), i.e. blue-shifted from the OFF-state resonance.
        """
        return self.resonance_wavelength_m - self.on_state_shift_m

    def modulation_extinction_db(self) -> float:
        """Achieved ON/OFF extinction at the signal wavelength, in dB."""
        off = self.through_transmission(self.signal_wavelength_m, MicroringState.OFF)
        on = self.through_transmission(self.signal_wavelength_m, MicroringState.ON)
        return float(linear_to_db(off / on))

    def spectrum(
        self,
        wavelengths_m: np.ndarray,
        state: MicroringState = MicroringState.OFF,
    ) -> np.ndarray:
        """Through-port transmission sampled over a wavelength grid (Figure 3)."""
        return np.asarray(self.through_transmission(wavelengths_m, state), dtype=float)

    def detuned_copy(self, resonance_wavelength_m: float) -> "MicroringResonator":
        """A copy of this ring tuned to a different channel wavelength."""
        return MicroringResonator(
            resonance_wavelength_m=resonance_wavelength_m,
            quality_factor=self.quality_factor,
            extinction_ratio_db=self.extinction_ratio_db,
            through_loss_db=self.through_loss_db,
            drop_loss_db=self.drop_loss_db,
            on_state_shift_m=self.on_state_shift_m,
            drive_power_w=self.drive_power_w,
        )

    @classmethod
    def from_config(cls, config) -> "MicroringResonator":
        """Build the ring from a :class:`repro.config.PaperConfig`.

        Resonant at the grid centre; the crosstalk model retunes copies of it
        to each channel with :meth:`detuned_copy`.
        """
        return cls(
            resonance_wavelength_m=config.center_wavelength_m,
            quality_factor=config.ring_quality_factor,
            extinction_ratio_db=config.extinction_ratio_db,
            through_loss_db=config.ring_through_loss_db,
            drop_loss_db=config.ring_drop_loss_db,
            drive_power_w=config.modulator_power_w,
        )

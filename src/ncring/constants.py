"""Physical constants (CODATA 2018) used throughout the package."""

from dataclasses import dataclass

from ncring.errors import InvalidRange


@dataclass(frozen=True)
class PhysConstants:
    """Fundamental constants in SI units.

    The elementary charge is stored as a magnitude; any sign structure of
    the electron charge is carried explicitly by the formulas that need it.
    """

    hbar: float = 1.054571817e-34        # J s
    e_charge: float = 1.602176634e-19    # C, magnitude
    h_planck: float = 6.62607015e-34     # J s
    m_electron: float = 9.1093837015e-31  # kg

    def __post_init__(self):
        for name in ("hbar", "e_charge", "h_planck", "m_electron"):
            if not getattr(self, name) > 0.0:
                raise InvalidRange(f"{name} must be strictly positive")

    @property
    def flux_quantum(self) -> float:
        """Magnetic flux quantum phi0 = h/e in Wb, derived from the stored fields."""
        return self.h_planck / self.e_charge


CODATA2018 = PhysConstants()

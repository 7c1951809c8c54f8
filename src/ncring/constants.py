"""Physical constants in SI units, fixed at their CODATA 2018 values (h and e exact).

The elementary charge is a magnitude; formulas carry any sign of the electron charge.
"""

HBAR = 1.054571817e-34  # J s
E_CHARGE = 1.602176634e-19  # C, magnitude
H_PLANCK = 6.62607015e-34  # J s
M_ELECTRON = 9.1093837015e-31  # kg
FLUX_QUANTUM = H_PLANCK / E_CHARGE  # phi0 = h/e in Wb

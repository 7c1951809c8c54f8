"""Persistent currents in a quantum ring threaded by a noncommutative
effective flux: closed-form model, brute-force oracles, and a detection
pipeline built on the divergence signatures of J/f and (J - N)/f."""

__version__ = "0.1.0"

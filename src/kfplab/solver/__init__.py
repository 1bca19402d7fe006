"""Finite-volume / semi-Lagrangian laboratory for the kinetic equation."""

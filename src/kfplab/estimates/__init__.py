"""Norms on cylinders, explicit constants, and estimate checkers."""

"""Pursuit games: exact solvers, measures, certificates and strategy checks."""

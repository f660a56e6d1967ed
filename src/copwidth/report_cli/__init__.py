"""Bound-table reports, seeded property suites, and the command line."""

"""Divergence-based fairness audit engine for credit scorecards."""

__version__ = "0.1.0"

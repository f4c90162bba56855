"""Divergence-based fairness audit engine for credit scorecards."""

# numpy first, from here: when a submodule imported it deeper in the import
# chain, start-up measured 20-40 ms slower (CPython 3.11, numpy 2.4), so the
# order of the submodules' imports must not decide where it loads
import numpy  # noqa: F401

__version__ = "0.1.0"

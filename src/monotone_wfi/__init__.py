"""Monotone binary regression: NPMLE, weak-impact limit laws, MC harness."""

__version__ = "0.1.0"

"""Shared helpers for the per-figure benchmark harness.

Each bench reproduces one table or figure from the paper: it runs the
(scaled-down) experiment once, prints the rows the paper plots, and asserts
the qualitative shape (who wins, where the knees fall).  Absolute numbers
are not expected to match the authors' hardware testbed — see
EXPERIMENTS.md for the side-by-side record.
"""

from __future__ import annotations


def show(title: str, body: str) -> None:
    """Print one figure's reproduced rows beneath a banner."""
    print()
    print("=" * 74)
    print(title)
    print("=" * 74)
    print(body)

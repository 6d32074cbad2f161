"""The scale caps, the package's only limits, and the one check behind every
refusal. Callers count a request's work in closed form before doing any of
it. This module imports nothing from the package.
"""

# name: (value, unit of the count checked against it)
CAPS = {
    "level": (10_000, "level floor"),
    "stirling_cells": (500_000, "Stirling numbers"),  # and a tower's vertices
    "labels": (50_000, "candidate labels"),  # and conjugacy_classes' p(n) classes
    "oracle_work": (55_000, "checks and character values"),
    "bijection_n": (10_000, "letters"),
}


def check(cap, count, what, error=ValueError):
    """Raise error(f"{what} {value}") if count is above the named cap's
    value: what is the refusal line up to the cap, naming the request."""
    value = CAPS[cap][0]
    if count > value:
        raise error(f"{what} {value}")

"""Hypothesis profiles: ``--hypothesis-profile=ci`` draws the same examples on
every run, so a property failure in CI reproduces; local runs stay random."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)

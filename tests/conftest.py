"""Pytest settings shared by every test module."""

from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so a seeded suite gives the same result run to run.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

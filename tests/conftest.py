"""Shared test settings.

Every Hypothesis test runs derandomized, with no example database and no
deadline, so each run draws the same examples.  Tests set only their own
max_examples.
"""

from hypothesis import settings

settings.register_profile("loopqed", derandomize=True, database=None, deadline=None)
settings.load_profile("loopqed")

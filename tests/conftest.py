"""Shared test configuration.

Property tests draw their examples deterministically (derandomize) from a
small budget, so the suite gives the same result on every run and stays
within its time budget.  No example database is written.
"""

from hypothesis import settings

settings.register_profile("rydqnd", derandomize=True, max_examples=20, deadline=None,
                          database=None)
settings.load_profile("rydqnd")

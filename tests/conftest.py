"""Shared test settings.

Property tests run under one registered ``hypothesis`` profile: examples are
derived from each test's source rather than drawn at random, no example
database is kept, and the example count is small, so every run of the suite
checks the same inputs in a bounded time.
"""

from hypothesis import settings

settings.register_profile("decodyn", derandomize=True, database=None, deadline=None, max_examples=20)
settings.load_profile("decodyn")

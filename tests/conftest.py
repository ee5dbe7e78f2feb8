"""Shared test settings.

Property tests run a fixed, derandomized sequence of examples with no
per-example deadline and no example database, so every run replays the same
cases whatever the machine's load.
"""

from hypothesis import settings

settings.register_profile("replay", derandomize=True, deadline=None, database=None,
                          max_examples=60)
settings.load_profile("replay")

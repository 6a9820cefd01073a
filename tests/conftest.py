"""Settings shared by every test module."""

from hypothesis import settings

# every run draws the same examples and keeps no example database, so tier-1
# is deterministic and writes no .hypothesis/; each test sets max_examples
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

"""Shared test settings.

Property-based tests run a fixed example sequence (derandomized, with no
example database replaying earlier failures) and no per-example deadline,
so the suite is reproducible and does not depend on the speed of the
machine it runs on.
"""

from hypothesis import settings

settings.register_profile("softplex", derandomize=True, database=None, deadline=None)
settings.load_profile("softplex")

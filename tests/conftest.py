"""Suite-wide test settings.

Property tests run derandomized, without a deadline or an example
database, so every run tries the same examples; each test keeps its own
max_examples.
"""

from hypothesis import settings

settings.register_profile("oniontrust", derandomize=True, deadline=None, database=None)
settings.load_profile("oniontrust")

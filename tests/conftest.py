"""Settings shared by every test module.

One hypothesis profile, loaded for the whole run: `derandomize=True`
draws the same examples on every run, so the suite's outcome does not
vary between runs, and `deadline=None` keeps a slow or shared host from
failing a property test on the time of one example.
"""

from hypothesis import settings

settings.register_profile("rigidity-sieve", deadline=None, derandomize=True)
settings.load_profile("rigidity-sieve")

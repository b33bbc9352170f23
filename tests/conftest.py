"""Test settings shared by every module.

Property tests draw the same examples on every run: Tier-1 must be
deterministic, so a failure it reports is reproducible. Each ``@given`` test
keeps its own ``max_examples``; ``deadline`` is off because a loaded host
can slow any example past hypothesis' default.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

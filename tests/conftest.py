"""Shared test configuration.

Hypothesis runs derandomized and without an example database, so every
run of the suite draws the same examples: a failure reproduces on the
next run, and a pass is not a matter of luck.
"""

from hypothesis import settings

settings.register_profile("reinhardt", derandomize=True, database=None)
settings.load_profile("reinhardt")

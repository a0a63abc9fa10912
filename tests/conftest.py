"""Hypothesis profiles.

The default profile derandomizes every ``@given`` test, so each run draws
the same examples and a verdict never turns on the draw.  The ``random``
profile (``pytest --hypothesis-profile=random``) searches afresh on each run
and prints the reproduction blob of any failure, which the failing test then
pins as an ``@example``.
"""

from hypothesis import settings

settings.register_profile("random", derandomize=False, print_blob=True)
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

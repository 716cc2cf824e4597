"""Hypothesis profiles for the test suite.

The default profile is hypothesis' own.  ``mutation`` is for a
fault-injection check, where a fault can make drawn inputs slow and
shrinking runs for a long time: every draw is derandomized, nothing is
read from or saved to an example database, failures are not shrunk and
no deadline applies.  Select it with

    PYTHONPATH=src python -m pytest -q --hypothesis-profile=mutation
"""

from hypothesis import Phase, settings

settings.register_profile(
    "mutation", derandomize=True, database=None, deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink])

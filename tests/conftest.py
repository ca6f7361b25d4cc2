"""Test-session settings shared by every test module.

Hypothesis keeps generating random examples, but a failure also prints
its ``@reproduce_failure`` blob, so a falsifying example survives a
cleared example database or a cut log.  The ``pbn`` profile is loaded
unless pytest's ``--hypothesis-profile`` names another.  The deeper
``pbn-deep`` profile runs 1,000 examples of each property that takes its
budget from ``helpers.examples``: the batched-vs-oracle properties of
``test_batch.py``, the prior properties of ``test_priors.py``, the
conv and dense map sweeps of ``test_linops.py``, the log-mel and
archive properties of ``test_features.py``, and the CSV reader fuzzer
of ``test_cli.py``.
"""

from helpers import DEEP_PROFILE
from hypothesis import settings

settings.register_profile("pbn", print_blob=True)
settings.register_profile(DEEP_PROFILE, max_examples=1000, print_blob=True)


def pytest_configure(config):
    if not config.getoption("--hypothesis-profile", None):
        settings.load_profile("pbn")

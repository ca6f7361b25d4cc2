"""Test-session settings shared by every test module.

Hypothesis keeps generating random examples, but a failure also prints
its ``@reproduce_failure`` blob, so a falsifying example survives a
cleared example database or a cut log.
"""

from hypothesis import settings

settings.register_profile("pbn", print_blob=True)
settings.load_profile("pbn")

import pytest

from toriclg import RunConfig, set_config


@pytest.fixture(autouse=True)
def _fresh_config():
    # the CLI runs each command inside ``configured`` and leaves the
    # process-wide configuration as it found it; the reset keeps a test
    # that sets the configuration itself from leaking into the next
    set_config(RunConfig())
    yield
    set_config(RunConfig())

"""Session set-up shared by every test module."""

import os
import shutil
import tempfile


def pytest_configure(config):
    # solve builds its compiled kernels into $XDG_CACHE_HOME/kfplab: give
    # the session a cache of its own, so the tests write nothing to the
    # user's and every session covers a cold build
    os.environ["XDG_CACHE_HOME"] = tempfile.mkdtemp(
        prefix="kfplab-test-cache-")


def pytest_unconfigure(config):
    shutil.rmtree(os.environ["XDG_CACHE_HOME"], ignore_errors=True)

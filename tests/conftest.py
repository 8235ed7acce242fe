import os

from hypothesis import settings

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

# the stderr that pytest started with, for a traceback written as the process ends
stderr_fd = None


def pytest_configure(config):
    # pytest has capture suspended here; while it captures, fd 2 is a temporary
    # file, and what is written there is lost when faulthandler ends the process
    global stderr_fd
    stderr_fd = os.dup(2)


def pytest_unconfigure(config):
    os.close(stderr_fd)

"""Memory probes shared by the tests of the byte guards."""

import contextlib
import resource
import tracemalloc

from qal import grid


def traced_peak(fn):
    """Peak bytes Python allocations reach while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def capped_address_space(headroom=256 << 20):
    """Let a broken byte guard fail with MemoryError instead of filling the host."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as statm:
        mapped = int(statm.read().split()[0]) * resource.getpagesize()
    cap = mapped + headroom if hard == resource.RLIM_INFINITY else min(hard, mapped + headroom)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


class Charged(Exception):
    """A builder's first byte charge passed; nothing was built."""


def charge_then_stop(*args):
    """Stand-in for ``check_dense_budget``: charge, and stop the build if admitted."""
    grid.check_dense_budget(*args)
    raise Charged

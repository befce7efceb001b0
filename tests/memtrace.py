"""Traced-allocation peak of one call, for memory-budget tests."""

import tracemalloc


def traced_peak(fn, *args, **kwargs):
    """(fn's result, the tracemalloc peak in bytes during the call above
    the traced size at its start). numpy reports its array buffers to
    tracemalloc, so the peak counts every array the call holds at once."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def traced_cli_peak(argv):
    """(exit code, traced peak in bytes) of one `flowmoe.cli.run` stage;
    path arguments may be Path objects."""
    from flowmoe.cli import run
    return traced_peak(run, [str(a) for a in argv])

"""Engine registry: one place that knows how to build every matcher.

The interpreter, the CLI, the service layer, the perf scenarios, and
the conformance suite all pick match backends by name through this
module, so adding a fourth engine means adding one entry here (and one
fixture line in ``tests/conformance/``).

Engines:

``sequential``
    :class:`~repro.rete.matcher.SequentialMatcher` — the paper's
    uniprocessor engine.  Options: ``memory``, ``n_lines``,
    ``recorder``.

``threaded``
    :class:`~repro.parallel.engine.ParallelMatcher` — thread-per-worker
    with per-line locks.  Demonstrates the paper's synchronization
    design under real interleavings but no speedup under the GIL.
    Options: ``n_workers``, ``n_queues``, ``lock_scheme``, ``n_lines``,
    ``watchdog_s``/``watchdog_dump`` (stall watchdog).

``mp``
    :class:`~repro.parallel.mp.engine.ProcessMatcher` —
    process-per-worker with shard-routed lines; the backend that can
    actually use multiple CPUs.  Options: ``n_workers``, ``n_lines``,
    ``watchdog_s``/``watchdog_dump`` (stall watchdog).
    Requires the ``fork`` start method (see :func:`mp_supported`).

``corgi``
    :class:`~repro.corgi.engine.CorgiMatcher` — bounded-cost matching
    without beta memories: left/right unlinking, lazy (demand-driven)
    join evaluation and hoisted negation gates keep adversarial
    cross-product programs polynomial where Rete goes super-linear.
    Takes no options (it is sequential and memory-less by design).
"""

from __future__ import annotations

from typing import Optional, Tuple

from .rete.network import ReteNetwork

#: Every engine name accepted by ``make_matcher`` / ``--engine`` /
#: the serve ``open`` request, in documentation order.
ENGINE_NAMES: Tuple[str, ...] = ("sequential", "threaded", "mp", "corgi")


def mp_supported() -> bool:
    """Whether the ``mp`` engine can run on this platform."""
    from .parallel.mp import mp_supported as _supported

    return _supported()


def make_matcher(
    engine: str,
    network: ReteNetwork,
    *,
    memory: str = "hash",
    n_lines: int = 1024,
    n_workers: int = 2,
    n_queues: Optional[int] = None,
    lock_scheme: str = "simple",
    recorder=None,
    watchdog_s: Optional[float] = None,
    watchdog_dump: Optional[str] = None,
):
    """Build the named match backend over a compiled ``network``.

    Unknown names raise ``ValueError`` listing the valid ones, so CLI
    and serve-layer validation can simply try and re-raise.  Only the
    sequential engine records a task DAG for the simulator, so a
    ``recorder`` for any other engine is an error rather than a silent
    no-op (the simulator would replay an empty DAG).
    """
    if recorder is not None and engine != "sequential":
        raise ValueError(
            f"recorder requires the sequential engine, not {engine!r}"
        )
    if engine == "sequential":
        from .rete.matcher import SequentialMatcher

        return SequentialMatcher(
            network, memory=memory, n_lines=n_lines, recorder=recorder
        )
    if engine == "threaded":
        from .parallel.engine import ParallelMatcher

        return ParallelMatcher(
            network,
            n_workers=n_workers,
            n_queues=n_queues if n_queues is not None else 1,
            lock_scheme=lock_scheme,
            n_lines=n_lines,
            watchdog_s=watchdog_s,
            watchdog_dump=watchdog_dump,
        )
    if engine == "mp":
        from .parallel.mp import ProcessMatcher

        return ProcessMatcher(
            network,
            n_workers=n_workers,
            n_lines=n_lines,
            watchdog_s=watchdog_s,
            watchdog_dump=watchdog_dump,
        )
    if engine == "corgi":
        from .corgi.engine import CorgiMatcher

        return CorgiMatcher(network)
    raise ValueError(
        f"unknown engine {engine!r}; expected one of {', '.join(ENGINE_NAMES)}"
    )

"""Registries and helpers for the cross-engine conformance suite.

``ENGINES`` maps an engine name to the ``Interpreter`` keyword options
that select it — adding an engine to the suite is one more entry
here, nothing else.  ``PROGRAMS`` maps the eight bundled workloads to
small-but-representative sources (every beta node kind, both recursion
styles, the cube-model generator at two scrambles, and two adversarial
fixtures — a cross-product stressor and a deep-chain negation program
— that hold every engine to byte-identical traces exactly where match
cost goes pathological).

Sequential runs are the reference: each engine's complete firing trace
(rendered to one canonical string), final working memory, ``write``
output, and halt flag must be byte-identical to the sequential run of
the same program.  Reference results are computed once per program and
cached for the whole session.
"""

from __future__ import annotations

import pytest

from repro.ops5.interpreter import Interpreter
from repro.ops5.parser import parse_program
from repro.programs import (
    blocks,
    crossfire,
    monkey,
    negchain,
    rubik,
    tourney,
    weaver,
)

#: Engine name -> Interpreter(engine=..., engine_opts=...) selections.
#: A new backend joins the conformance matrix by adding one line.
#:
#: The threaded engine runs at 1, 2 and 3 task queues with 2 workers:
#: one shared queue, one dedicated home queue per worker, and a spare
#: queue serviced only by steals.  Each batch's deletes run to
#: quiescence before its adds, so every queue count holds — the rubik
#: workloads once livelocked at ``n_queues == n_workers``.
ENGINES = {
    "sequential": dict(engine="sequential", engine_opts={}),
    "threaded": dict(engine="threaded",
                     engine_opts={"n_workers": 2, "n_queues": 1}),
    "threaded@2q": dict(engine="threaded",
                        engine_opts={"n_workers": 2, "n_queues": 2}),
    "threaded@3q": dict(engine="threaded",
                        engine_opts={"n_workers": 2, "n_queues": 3}),
    "mp": dict(engine="mp", engine_opts={"n_workers": 2}),
    "corgi": dict(engine="corgi", engine_opts={}),
}

#: Program name -> OPS5 source factory.  Sizes chosen so the whole
#: matrix stays inside tier-1 time; "cube" is the cube-model generator
#: (:mod:`repro.programs.cube`) emitting a second, different scramble
#: than "rubik" — same generator, different program text and solution.
PROGRAMS = {
    "blocks": lambda: blocks.source(),
    "monkey": lambda: monkey.source(),
    "tourney": lambda: tourney.source(n_teams=6, n_rounds=7),
    "weaver": lambda: weaver.source(grid=4, n_nets=1),
    "rubik": lambda: rubik.source(n_moves=4, seed=1988),
    "cube": lambda: rubik.source(n_moves=3, seed=7),
    "crossfire": lambda: crossfire.source(n_items=7),
    "negchain": lambda: negchain.source(n_chains=5),
}

MAX_CYCLES = 5000


def render_trace(result) -> str:
    """One canonical text rendering of a complete firing trace."""
    return "\n".join(
        f"{f.cycle} {f.production} {','.join(map(str, f.timetags))}"
        for f in result.firings
    )


def wm_snapshot(interp) -> tuple:
    """Order-independent view of final working memory (timetags are
    creation-order dependent and *included*: engines must agree on
    them too, or RHS ``remove``/``modify`` addressing would differ)."""
    return tuple(sorted(
        (wme.klass, wme.timetag, wme.attrs) for wme in interp.wm
    ))


def run_engine(source: str, engine_name: str):
    """Run ``source`` on one engine; returns the conformance tuple."""
    program = parse_program(source)
    interp = Interpreter(program, **ENGINES[engine_name])
    try:
        result = interp.run(max_cycles=MAX_CYCLES)
        return {
            "trace": render_trace(result),
            "wm": wm_snapshot(interp),
            "output": tuple(result.output),
            "halted": result.halted,
            "cycles": result.cycles,
            "activations": interp.stats.node_activations,
        }
    finally:
        interp.close()


@pytest.fixture(scope="session")
def reference():
    """Cached sequential reference results, one per program."""
    cache = {}

    def get(program_name: str):
        if program_name not in cache:
            cache[program_name] = run_engine(
                PROGRAMS[program_name](), "sequential"
            )
        return cache[program_name]

    return get

"""``MatchStats.activations_by_kind`` across every node kind on the
tourney benchmark, sequential vs parallel.

Tourney is the one small benchmark with negated condition elements, so
a run exercises join, not, *and* term beta kinds.  Two conventions are
pinned here:

* "root" is not a beta activation — WM changes entering the
  constant-test network are counted as ``wme_changes`` (one
  ``ChangeRecord`` each in a recorded trace), never in
  ``node_activations``.  Adding root there would silently change the
  Table 4-1 numbers.
* The parallel engine agrees with the sequential matcher on *results*
  (firings, wme_changes, the kinds of work) but not on work counts:
  out-of-order deletes trigger conjugate-pair extra work, the overhead
  the paper attributes to the parallel decomposition, while running
  each batch's deletes before its adds can save work (on rubik the
  threaded engine does about a third of the sequential activations).
"""

from repro.ops5.interpreter import Interpreter
from repro.ops5.parser import parse_program
from repro.parallel.engine import ParallelMatcher
from repro.programs import tourney
from repro.rete.network import ReteNetwork
from repro.rete.trace import TraceRecorder

SOURCE = tourney.source(n_teams=6, n_rounds=5)
MAX_CYCLES = 400
BETA_KINDS = {"join", "not", "term"}


def sequential_run(recorder=None):
    interp = Interpreter(SOURCE, recorder=recorder)
    result = interp.run(max_cycles=MAX_CYCLES)
    return interp, result


def parallel_run(n_workers=3, n_queues=2):
    program = parse_program(SOURCE)
    network = ReteNetwork.compile(program)
    with ParallelMatcher(network, n_workers=n_workers, n_queues=n_queues) as m:
        interp = Interpreter(program, matcher=m, network=network)
        result = interp.run(max_cycles=MAX_CYCLES)
        return interp.stats, result


class TestSequential:
    def test_all_beta_kinds_present(self):
        interp, _result = sequential_run()
        by_kind = interp.stats.activations_by_kind
        assert set(by_kind) == BETA_KINDS
        assert all(by_kind[k] > 0 for k in BETA_KINDS)

    def test_kinds_sum_to_node_activations(self):
        interp, _result = sequential_run()
        stats = interp.stats
        assert sum(stats.activations_by_kind.values()) == stats.node_activations

    def test_root_is_wme_changes_not_an_activation(self):
        recorder = TraceRecorder()
        interp, _result = sequential_run(recorder=recorder)
        stats = interp.stats
        assert "root" not in stats.activations_by_kind
        trace = recorder.trace
        # Root (alpha) work: one recorded change per WM change, and the
        # recorded beta tasks match the by-kind counters exactly.
        assert trace.n_changes == stats.wme_changes
        assert trace.summary()["by_kind"] == stats.activations_by_kind


class TestParallelAgreement:
    def test_parallel_agrees_with_sequential(self):
        seq_interp, seq_result = sequential_run()
        seq = seq_interp.stats
        par, par_result = parallel_run()

        # Hard agreement: same firings, same WM changes, same kinds of
        # work, and internally-consistent by-kind totals on both sides.
        assert [
            (f.cycle, f.production, f.timetags) for f in par_result.firings
        ] == [(f.cycle, f.production, f.timetags) for f in seq_result.firings]
        assert par.wme_changes == seq.wme_changes
        assert set(par.activations_by_kind) == set(seq.activations_by_kind)
        assert sum(par.activations_by_kind.values()) == par.node_activations

        # Tourney's batches give the deletes-first split nothing to
        # save, so here the conjugate extra work shows: no kind does
        # less work than sequential.
        for kind in BETA_KINDS:
            assert par.activations_by_kind[kind] >= seq.activations_by_kind[kind]

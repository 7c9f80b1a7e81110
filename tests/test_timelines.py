"""The multi-timeline core: :class:`repro.sim.TimelineSet`.

Unit tests drive the set with scripted children; the composite tests
check the same contracts through the cluster gateway and the
disaggregated and dedicated engines that are built on it.
"""

import pytest

from repro.hardware import Cluster, GPUNode, node_from_name
from repro.serving import (ENGINES, ClusterGateway, EngineConfig, LLAMA_7B,
                           ModelManager, SchedulerConfig, ServingGateway,
                           create_engine)
from repro.serving.streaming_metrics import RecordPolicy
from repro.sim import TimelineSet
from repro.workload import synthetic_trace

N_MODELS = 4


class Scripted:
    """A child timeline that serves one scheduled arrival per step, one
    simulated second each.  ``stuck`` children behave like an engine
    wedged on an inadmissible request: their step returns False while
    work remains."""

    def __init__(self, *arrivals, clock=0.0, stuck=False):
        self.clock = clock
        self.work = sorted(arrivals)
        self.stuck = stuck
        self.cancels = []
        self.steps = 0

    @property
    def unfinished(self):
        return len(self.work)

    @property
    def next_action_s(self):
        return max(self.clock, self.work[0]) if self.work else None

    def step(self):
        self.steps += 1
        if self.stuck or not self.work:
            return False
        self.clock = max(self.clock, self.work.pop(0)) + 1.0
        return True

    def schedule_cancel(self, request_id, at_s, reason="cancel"):
        self.cancels.append((request_id, at_s, reason))


def make_set(*children, **kwargs):
    timelines = TimelineSet(**kwargs)
    for ident, child in enumerate(children):
        timelines.add(child, ident)
    return timelines


# --------------------------------------------------------------------------- #
# ordering and keys
# --------------------------------------------------------------------------- #
class TestOrdering:
    def test_least_key_steps_first(self):
        late, early = Scripted(5.0), Scripted(2.0)
        timelines = make_set(late, early)
        assert timelines.frontier == 2.0
        assert timelines.step()
        assert (early.steps, late.steps) == (1, 0)

    def test_ties_break_on_id(self):
        second, first = Scripted(3.0), Scripted(3.0)
        timelines = TimelineSet()
        timelines.add(second, 7)
        timelines.add(first, 2)
        timelines.step()
        assert (first.steps, second.steps) == (1, 0)
        timelines.step()      # first now keys at 4.0, behind second's 3.0
        assert (first.steps, second.steps) == (1, 1)

    def test_rekey_after_step(self):
        child = Scripted(1.0, 1.5)
        timelines = make_set(child)
        timelines.step()
        assert child.clock == 2.0 and timelines.frontier == 2.0
        timelines.step()
        assert timelines.least_key() is None
        # no key: the frontier falls back to the largest clock
        assert timelines.frontier == 3.0

    def test_rekey_after_submit(self):
        idle, busy = Scripted(clock=1.0), Scripted(6.0)
        timelines = make_set(idle, busy)
        assert timelines.frontier == 6.0
        idle.work.append(4.0)
        timelines.touch(idle)
        assert timelines.frontier == 4.0
        timelines.step()
        assert idle.steps == 1 and busy.steps == 0

    def test_rekey_after_reseat(self):
        lagging, other = Scripted(0.0), Scripted(3.0)
        timelines = make_set(lagging, other)
        assert timelines.frontier == 0.0
        lagging.clock = 5.0          # re-seated from outside its step
        timelines.touch(lagging)
        assert timelines.frontier == 3.0
        timelines.step()
        assert other.steps == 1 and lagging.steps == 0

    def test_removed_child_still_bounds_max_clock(self):
        fast, slow = Scripted(clock=9.0), Scripted(clock=2.0)
        timelines = make_set(fast, slow)
        timelines.remove(fast)
        assert timelines.frontier == timelines.max_clock == 9.0
        timelines.reset()
        assert timelines.max_clock == 2.0


# --------------------------------------------------------------------------- #
# wedges and the frontier
# --------------------------------------------------------------------------- #
class TestFrontier:
    def test_wedged_child_leaves_the_frontier_until_touched(self):
        wedged, healthy = Scripted(0.0, stuck=True), Scripted(1.0, 2.0)
        timelines = make_set(wedged, healthy)
        assert timelines.frontier == 0.0
        # the wedged child is tried first, loses its key, and the same
        # call steps the healthy one
        assert timelines.step()
        assert wedged.steps == 1 and healthy.steps == 1
        assert timelines.frontier == 2.0
        assert timelines.step() and wedged.steps == 1
        assert not timelines.step()
        # a submit (or cancel, or reseat) gives it its key back
        wedged.stuck = False
        timelines.touch(wedged)
        assert timelines.frontier == 0.0
        assert timelines.step() and wedged.unfinished == 0

    def test_stepping_never_moves_the_frontier_backward(self):
        children = [Scripted(*[0.7 * i + 0.3 * j for i in range(6)])
                    for j in range(4)]
        timelines = make_set(*children)
        seen = [timelines.frontier]
        while timelines.step():
            seen.append(timelines.frontier)
        assert seen == sorted(seen)
        assert all(c.unfinished == 0 for c in children)

    def test_kernel_clock_never_retreats_behind_a_late_arrival(self):
        gateway = ClusterGateway(
            engine_factory=make_factory("deltazip", make_manager("deltazip")),
            cluster=Cluster.from_name("a800", 2, 1), n_replicas=2)
        gateway.submit("variant-00", 64, 400, arrival_s=0.0)
        while gateway.sim_now < 3.0:
            assert gateway.step()
        before = gateway.sim_now
        # a request arriving in the past lands on the idle replica, which
        # can act before the old frontier: the raw frontier retreats ...
        gateway.submit("variant-02", 16, 4, arrival_s=0.5)
        assert gateway.frontier < before
        # ... but the kernel clock (what the autoscaler observes) holds
        assert gateway.sim_now == before
        last = before
        while gateway.step():
            assert gateway.kernel.now >= last
            last = gateway.kernel.now
        assert gateway.unfinished == 0


# --------------------------------------------------------------------------- #
# ownership, cancel routing, reaping
# --------------------------------------------------------------------------- #
class TestOwnership:
    def test_cancel_routes_to_the_owner_and_rekeys_it(self):
        child = Scripted(4.0)
        timelines = make_set(child)
        timelines.assign(7, child)
        assert timelines.owner(7) is child
        assert timelines.cancel(7, 2.5, "deadline") is child
        assert child.cancels == [(7, 2.5, "deadline")]
        timelines.release(7)
        assert timelines.owner(7) is None and timelines.n_owned == 0

    def test_cancel_before_routing_is_parked(self):
        child = Scripted()
        timelines = make_set(child)
        assert timelines.cancel(3, 1.0) is None
        assert child.cancels == []
        assert timelines.unpark(3) == (1.0, "cancel")
        assert timelines.unpark(3) is None

    def test_cluster_forwards_a_parked_cancel_at_routing(self):
        gateway = ClusterGateway(
            engine_factory=make_factory("deltazip", make_manager("deltazip")),
            cluster=Cluster.from_name("a800", 2, 1), n_replicas=2)
        trace = synthetic_trace(N_MODELS, rate=1.0, duration_s=10.0, seed=3)
        late = trace.requests[-1]
        early = trace.requests[0]
        result = gateway.replay(trace, cancels=[
            (late.request_id, late.arrival_s + 0.01),   # after arrival
            (early.request_id, early.arrival_s - 1.0)])  # never routed
        by_id = {r.request_id: r for r in result.records}
        assert by_id[late.request_id].status == "cancelled"
        assert by_id[late.request_id].finish_s >= late.arrival_s + 0.01
        assert by_id[early.request_id].status == "cancelled"
        assert by_id[early.request_id].tokens_served == 0
        assert len(result.records) == len(trace)

    def test_reap_callback_fires_when_a_child_drains(self):
        drained = []
        child, other = Scripted(0.0), Scripted(5.0, 6.0)
        timelines = make_set(child, other, on_drained=drained.append)
        timelines.step()
        assert drained == [child]
        while timelines.step():
            pass
        assert drained == [child, other]

    def test_rewire_runs_once_per_child(self):
        wired = []
        timelines = TimelineSet(wire=wired.append)
        a, b = Scripted(), Scripted()
        timelines.add(a, 0)
        timelines.add(b, 1)
        assert wired == [a, b]
        timelines.step()
        assert wired == [a, b]
        timelines.rewire()
        assert wired == [a, b, a, b]


# --------------------------------------------------------------------------- #
# owner maps of the composites under releasing record policies
# --------------------------------------------------------------------------- #
def make_manager(engine_name):
    mgr = ModelManager(LLAMA_7B)
    mgr.register_base("base")
    for i in range(N_MODELS):
        ENGINES[engine_name].register_variant(mgr, f"variant-{i:02d}",
                                              "base", 8.0)
    return mgr


def make_factory(engine_name, mgr, policy=RecordPolicy.KEEP_ALL,
                 **kwargs):
    def factory(node=None):
        return create_engine(
            engine_name, mgr, node or GPUNode(node_from_name("a800", 1)),
            scheduler_config=SchedulerConfig(max_batch_requests=8,
                                             max_concurrent_deltas=4),
            engine_config=EngineConfig(tp_degree=1, record_policy=policy,
                                       sample_k=8),
            **kwargs)
    return factory


RELEASING = (RecordPolicy.SAMPLE_K, RecordPolicy.DROP)


class TestOwnerRelease:
    @pytest.mark.parametrize("policy", RELEASING)
    def test_cluster(self, policy):
        gateway = ClusterGateway(
            engine_factory=make_factory("deltazip", make_manager("deltazip"),
                                        policy),
            cluster=Cluster.from_name("a800", 2, 1), n_replicas=2)
        trace = synthetic_trace(N_MODELS, rate=2.0, duration_s=20.0, seed=5)
        assert gateway.replay(trace).n_requests == len(trace)
        assert gateway.timelines.n_owned == 0

    @pytest.mark.parametrize("policy", RELEASING)
    @pytest.mark.parametrize("name,kwargs", [
        ("disagg", {"prefill_workers": 2, "decode_workers": 2}),
        ("dedicated", {})])
    def test_composite_engines(self, policy, name, kwargs):
        engine = make_factory(name, make_manager(name), policy, **kwargs)()
        trace = synthetic_trace(N_MODELS, rate=2.0, duration_s=20.0, seed=5)
        result = ServingGateway(engine).replay(trace)
        assert result.n_requests == len(trace)
        assert engine.timelines.n_owned == 0

    def test_dedicated_keeps_owners_under_keep_all(self):
        engine = make_factory("dedicated", make_manager("dedicated"))()
        trace = synthetic_trace(N_MODELS, rate=2.0, duration_s=20.0, seed=5)
        ServingGateway(engine).replay(trace)
        assert engine.timelines.n_owned == len(trace)
        assert engine.lookup(trace.requests[0].request_id).terminal

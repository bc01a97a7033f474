"""Unit tests for the health monitor, its node/gateway hosting, and
the flight recorder."""

from types import SimpleNamespace

import pytest

from repro import api
from repro.errors import ConfigError
from repro.health import probes
from repro.health.monitor import HealthMonitor
from repro.health.recorder import (
    FlightRecorder,
    bundle_json,
)
from repro.health.slo import SloSpec
from repro.net.sim import Simulator
from repro.telemetry import Telemetry


def _node(telemetry=None):
    return api.Node(
        [api.burrow_params(1), api.burrow_params(2)],
        seed=3,
        telemetry=telemetry,
    )


class _StuckProbe:
    """A probe whose single target is permanently unhealthy."""

    kind = probes.CHAIN_LIVENESS

    def __init__(self, target="chain:1"):
        self.target = target

    def sample(self, now):
        return [probes.ProbeSample(self.target, False, 99.0, "stuck")]


# ----------------------------------------------------------------------
# Monitor mechanics
# ----------------------------------------------------------------------


class TestMonitorMechanics:
    def test_interval_must_be_positive(self):
        with pytest.raises(ConfigError):
            HealthMonitor(Simulator(seed=0), interval=0.0)

    def test_ticks_on_the_simulated_clock(self):
        node = _node(telemetry=Telemetry.enabled())
        monitor = node.attach_health()
        node.start()
        node.run_for(50.0)
        assert monitor.ticks == 10  # every 5 s
        assert node.telemetry.metrics.total("health_ticks_total") == 10.0
        assert set(monitor.states) == {
            "chain:1", "chain:2", "relay:1->2", "relay:2->1",
            "mempool:1", "mempool:2",
        }
        assert all(monitor.states.values())

    def test_restart_does_not_double_tick(self):
        node = _node()
        monitor = node.attach_health()
        node.start()
        node.run_for(20.0)
        node.stop()
        node.run_for(20.0)  # stop() cancelled the loop: no tick is pending
        ticks_while_stopped = monitor.ticks
        node.start()
        node.run_for(20.0)
        assert monitor.ticks == ticks_while_stopped + 4

    def test_health_state_gauge_tracks_judgement(self):
        node = _node(telemetry=Telemetry.enabled())
        monitor = node.attach_health()
        monitor.add_probe(_StuckProbe("chain:99"))
        monitor.sample()
        metrics = node.telemetry.metrics
        assert metrics.value("health_state", target="chain:1") == 1.0
        assert metrics.value("health_state", target="chain:99") == 0.0

    def test_transitions_recorded_once_per_flip(self):
        monitor = HealthMonitor(Simulator(seed=0))
        probe = _StuckProbe()
        monitor.add_probe(probe)
        monitor.sample()
        monitor.sample()  # still unhealthy: no second transition
        assert len(monitor.transitions) == 1
        assert monitor.transitions[0]["to"] == "unhealthy"

    def test_sustained_unhealthy_fires_and_dumps_postmortem(self):
        sim = Simulator(seed=0)
        monitor = HealthMonitor(
            sim,
            telemetry=Telemetry.enabled(),
            slos=[SloSpec("liveness", probes.CHAIN_LIVENESS, objective=0.75)],
        )
        monitor.add_probe(_StuckProbe())
        monitor.start()
        sim.run(until=100.0)
        assert monitor.firing() == [
            {"slo": "liveness", "target": "chain:1", "severity": "page"}
        ]
        assert monitor.recorder.postmortems_written >= 1
        bundle = monitor.last_postmortem()
        assert bundle["reason"] == "alert"
        assert bundle["health"]["chain:1"] == "unhealthy"
        assert monitor.status()["firing"]

    def test_alert_counter_labels_state(self):
        sim = Simulator(seed=0)
        telemetry = Telemetry.enabled()
        monitor = HealthMonitor(
            sim,
            telemetry=telemetry,
            slos=[SloSpec("liveness", probes.CHAIN_LIVENESS, objective=0.75)],
        )
        monitor.add_probe(_StuckProbe())
        monitor.start()
        sim.run(until=100.0)
        assert telemetry.metrics.value(
            "health_alerts_total", slo="liveness", state="firing"
        ) == 1.0


# ----------------------------------------------------------------------
# Flight-recorder triggers
# ----------------------------------------------------------------------


class TestTriggers:
    def test_on_fault_records_and_dumps(self):
        monitor = HealthMonitor(Simulator(seed=0))
        event = SimpleNamespace(
            kind="crash", chain=1, target="val-1-0", duration=10.0, magnitude=0.0
        )
        monitor.on_fault(event)
        assert monitor.recorder.postmortems_written == 1
        bundle = monitor.last_postmortem()
        assert bundle["reason"] == "fault"
        assert bundle["events"][-1]["kind"] == "fault"
        assert bundle["events"][-1]["attrs"]["fault"] == "crash"

    def test_on_violation_records_and_dumps(self):
        monitor = HealthMonitor(Simulator(seed=0))
        monitor.on_violation("[I1] contract active twice")
        bundle = monitor.last_postmortem()
        assert bundle["reason"] == "invariant"
        assert bundle["events"][-1]["attrs"]["message"] == (
            "[I1] contract active twice"
        )

    def test_manual_postmortem(self):
        monitor = HealthMonitor(Simulator(seed=0))
        bundle = monitor.postmortem("manual")
        assert bundle["reason"] == "manual"
        assert monitor.last_postmortem_json() == bundle_json(bundle)


# ----------------------------------------------------------------------
# Node hosting
# ----------------------------------------------------------------------


class TestNodeHosting:
    def test_attach_health_builds_and_returns_the_same_monitor(self):
        node = _node()
        monitor = node.attach_health()
        assert node.attach_health() is monitor
        assert node.health is monitor

    def test_attach_none_detaches_and_stops(self):
        node = _node()
        monitor = node.attach_health()
        node.start()
        assert monitor.running
        node.attach_health(None)
        assert not monitor.running
        assert node.health is None

    def test_monitor_follows_node_lifecycle(self):
        node = _node()
        monitor = node.attach_health()
        assert not monitor.running
        node.start()
        assert monitor.running
        node.stop()
        assert not monitor.running

    def test_for_node_includes_attached_components(self):
        node = _node()
        node.attach_replication()
        monitor = HealthMonitor.for_node(node)
        kinds = {probe.kind for probe in monitor.probes}
        assert probes.REPLICA_STALENESS in kinds


# ----------------------------------------------------------------------
# Gateway and client exposure
# ----------------------------------------------------------------------


class TestGatewayHealth:
    def _world(self):
        node = _node()
        gateway = api.Gateway(node)
        client = api.Client(gateway, name="alice")
        return node, gateway, client

    def test_healthy_world_is_not_degraded(self):
        node, gateway, client = self._world()
        monitor = node.attach_health()
        gateway.start()
        node.run_for(30.0)
        health = client.health()
        assert health["serving"] is True
        assert health["degraded"] is False
        assert health["targets"]["chain:1"] == "healthy"
        assert health["alerts"] == []
        assert health["queues"] == {1: 0, 2: 0}

    def test_unhealthy_target_degrades(self):
        node, gateway, client = self._world()
        monitor = node.attach_health()
        monitor.add_probe(_StuckProbe())
        gateway.start()
        node.run_for(10.0)
        health = client.health()
        assert health["degraded"] is True
        assert health["targets"]["chain:1"] == "unhealthy"

    def test_health_without_monitor_still_reports_queues(self):
        node, gateway, client = self._world()
        gateway.start()
        health = client.health()
        assert health["serving"] is True
        assert health["degraded"] is False
        assert health["targets"] == {}

    def test_simnet_transport_serves_health_immediately(self):
        node = _node()
        gateway = api.Gateway(node)
        client = api.Client(api.SimNetTransport(gateway), name="bob")
        gateway.start()
        assert client.health()["serving"] is True


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.record(float(i), "transition", index=i)
        assert len(recorder.events) == 4
        assert recorder.events[0]["attrs"]["index"] == 6
        assert recorder.events_recorded == 10

    def test_snapshot_delta(self):
        telemetry = Telemetry.enabled()
        recorder = FlightRecorder()
        recorder.snapshot(telemetry.metrics)  # pins the baseline
        telemetry.metrics.counter("gateway_requests_total").inc(7)
        recorder.snapshot(telemetry.metrics)
        bundle = recorder.dump("manual", 10.0, {}, [], [])
        assert bundle["metrics"]["delta"]["gateway_requests_total"] == 7.0
        assert bundle["metrics"]["start"]["gateway_requests_total"] == 0.0

    def test_postmortem_retention_bounded(self):
        recorder = FlightRecorder(max_postmortems=2)
        for i in range(5):
            recorder.dump("alert", float(i), {}, [], [])
        assert len(recorder.postmortems) == 2
        assert recorder.postmortems_written == 5
        assert recorder.postmortems_dropped == 3

    def test_bundle_json_is_canonical(self):
        recorder = FlightRecorder()
        bundle = recorder.dump("manual", 1.0, {"chain:1": "healthy"}, [], [])
        text = bundle_json(bundle)
        assert '"reason":"manual"' in text
        assert "\n" not in text

"""Golden test on the stable facade: ``repro.api.__all__``.

The facade is the compatibility contract — applications, examples and
the CLI import only from :mod:`repro.api`, so its surface may only
change deliberately.  The golden list below is that contract written
down: a failing diff here means a reviewed decision to grow the API
(add the name to the golden list too) or a breaking change (don't).

Since the fleet PR the facade is a package of documented sections
(``serving`` / ``chains`` / ``authoring`` / ``observation`` /
``errors``) re-exported flat; the section split is part of the
contract and tested here too.
"""


import pytest

from repro import api

# The contract.  Keep sorted; update only on purpose.
GOLDEN_SURFACE = sorted([
    # serving
    "Node",
    "Gateway",
    "GatewayFleet",
    "GatewayLimits",
    "PriorityClass",
    "Client",
    "SimNetTransport",
    "RequestHandle",
    "MoveHandle",
    "Subscription",
    # chains
    "Chain",
    "ChainParams",
    "burrow_params",
    "ethereum_params",
    "ChainRegistry",
    "HeaderRelay",
    "connect_chains",
    "IBCBridge",
    "MovePhases",
    "Simulator",
    "ShardedCluster",
    # transactions and identity
    "Transaction",
    "sign_transaction",
    "TransferPayload",
    "DeployPayload",
    "CallPayload",
    "Move1Payload",
    "Move2Payload",
    "KeyPair",
    "Address",
    # contract authoring
    "MovableContract",
    "AccountI",
    "STokenI",
    "register_contract",
    "external",
    "payable",
    "view",
    "Slot",
    "MapSlot",
    "require",
    # rebalancing control plane
    "SignalPlane",
    "ShardLoadView",
    "RebalancePolicy",
    "Rebalancer",
    # replication (read-only cross-chain mirrors)
    "ReplicationManager",
    "ReplicationRelay",
    "Mirror",
    # observation and adversity
    "Telemetry",
    "FaultPlan",
    "HealthMonitor",
    "SloSpec",
    "FlightRecorder",
    "default_slos",
    # errors
    "ReproError",
    "ConfigError",
    "TransactionAborted",
    "Revert",
    "OutOfGas",
    "ContractLocked",
    "MoveError",
    "ReplayError",
    "ProofError",
    "InvariantViolation",
    "GatewayError",
    "Overloaded",
    "ShedByClass",
    "RateLimited",
    "RequestTimeout",
    "UnknownChainError",
    "InvalidRequest",
    "ReadOnlyReplicaError",
    "ReplicaUnavailable",
])

#: the sectioned facade: every name lives in exactly one section module
SECTIONS = ("serving", "chains", "authoring", "observation", "errors")


def test_api_surface_is_golden():
    assert sorted(api.__all__) == GOLDEN_SURFACE


def test_every_name_resolves():
    for name in api.__all__:
        assert getattr(api, name) is not None, name


def test_no_duplicates():
    assert len(api.__all__) == len(set(api.__all__))


def test_sections_partition_the_surface():
    # Every public name belongs to exactly one documented section, and
    # the flat re-export is the very same object.
    seen = {}
    for section in SECTIONS:
        module = getattr(api, section)
        for name in module.__all__:
            assert name not in seen, f"{name} in both {seen.get(name)} and {section}"
            seen[name] = section
            assert getattr(api, name) is getattr(module, name), name
    assert sorted(seen) == GOLDEN_SURFACE


def test_error_taxonomy_roots_at_reproerror():
    for name in api.__all__:
        obj = getattr(api, name)
        if isinstance(obj, type) and name.endswith(
            ("Error", "Aborted", "Violation", "Locked", "Overloaded")
        ):
            assert issubclass(obj, api.ReproError), name


def test_gateway_rejections_are_overloaded():
    # Clients catch one type to back off under pressure.
    assert issubclass(api.ShedByClass, api.Overloaded)
    assert issubclass(api.RateLimited, api.Overloaded)
    assert issubclass(api.Overloaded, api.GatewayError)


def test_retired_queue_full_name_is_gone():
    # Its deprecation cycle is over.  The wire code is unchanged —
    # clients branching on error.code ("queue_full") are unaffected.
    with pytest.raises(AttributeError):
        api.QueueFull
    assert api.ShedByClass.code == "queue_full"


def test_shed_by_class_carries_attribution():
    error = api.ShedByClass(
        "shed", shed_class="bulk", shed_client="alice", chain_id=1
    )
    assert error.shed_class == "bulk"
    assert error.shed_client == "alice"
    assert error.chain_id == 1
    assert error.to_dict()["shed_class"] == "bulk"

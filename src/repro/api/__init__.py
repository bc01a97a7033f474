"""The stable public facade of the reproduction.

Applications, examples and the CLI import from here — never from the
deep module paths, which stay free to refactor.  The surface is the
explicit ``__all__`` below, guarded by a golden test
(``tests/unit/test_api_surface.py``): adding a name is a reviewed
decision, removing or renaming one is a breaking change.

The facade is organised in five documented sections, each a submodule
re-exported here flat (``repro.api.Gateway`` and
``repro.api.serving.Gateway`` are the same object):

* :mod:`repro.api.serving` — :class:`Node`, :class:`Gateway` (whose
  ``replicas=N`` pins clients to N queue sets; :class:`GatewayFleet`
  is the same class), :class:`PriorityClass`,
  :class:`Client`, the transports, the request/move futures and
  :class:`Subscription`;
* :mod:`repro.api.chains` — :class:`Chain` / :class:`ChainParams` and
  the paper's presets, registries, relays, the bridge, the simulator,
  sharded clusters, rebalancing and replication;
* :mod:`repro.api.authoring` — payload kinds, signing, keypairs, and
  the Solidity-like contract-authoring layer;
* :mod:`repro.api.observation` — :class:`Telemetry`, fault plans and
  the health plane;
* :mod:`repro.api.errors` — the full typed taxonomy rooted at
  :class:`ReproError`.

Quick start::

    from repro import api

    node = api.Node([api.burrow_params(1), api.ethereum_params(2)])
    gateway = api.Gateway(node, api.GatewayLimits(max_queue_depth=512),
                          replicas=4)
    client = api.Client(gateway, name="alice")
    gateway.start()

    handle = client.deploy(MyContract, chain=1)
    receipt = handle.wait()
    moved = client.move(receipt.return_value,
                        source_chain=1, target_chain=2).wait()
"""

from __future__ import annotations

from repro.api.authoring import (
    AccountI,
    Address,
    CallPayload,
    DeployPayload,
    KeyPair,
    MapSlot,
    MovableContract,
    Move1Payload,
    Move2Payload,
    STokenI,
    Slot,
    Transaction,
    TransferPayload,
    external,
    payable,
    register_contract,
    require,
    sign_transaction,
    view,
)
from repro.api.chains import (
    Chain,
    ChainParams,
    ChainRegistry,
    HeaderRelay,
    IBCBridge,
    Mirror,
    MovePhases,
    RebalancePolicy,
    Rebalancer,
    ReplicationManager,
    ReplicationRelay,
    ShardLoadView,
    ShardedCluster,
    SignalPlane,
    Simulator,
    burrow_params,
    connect_chains,
    ethereum_params,
)
from repro.api.errors import (
    ConfigError,
    ContractLocked,
    GatewayError,
    InvalidRequest,
    InvariantViolation,
    MoveError,
    OutOfGas,
    Overloaded,
    ProofError,
    RateLimited,
    ReadOnlyReplicaError,
    ReplayError,
    ReplicaUnavailable,
    ReproError,
    RequestTimeout,
    Revert,
    ShedByClass,
    TransactionAborted,
    UnknownChainError,
)
from repro.api.observation import (
    FaultPlan,
    FlightRecorder,
    HealthMonitor,
    SloSpec,
    Telemetry,
    default_slos,
)
from repro.api.serving import (
    Client,
    Gateway,
    GatewayFleet,
    GatewayLimits,
    MoveHandle,
    Node,
    PriorityClass,
    RequestHandle,
    SimNetTransport,
    Subscription,
)

from repro.api import authoring, chains, errors, observation, serving

__all__ = (
    list(serving.__all__)
    + list(chains.__all__)
    + list(authoring.__all__)
    + list(observation.__all__)
    + list(errors.__all__)
)

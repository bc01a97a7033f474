"""One placement rule: the contract a transaction names, and its shard.

:func:`~repro.chain.tx.named_contract` is the only mapping from a
payload (and a deploy's receipt) to a contract; the load signals, the
gateway's subscriptions and its read-only-replica check all read it.
:meth:`~repro.sharding.cluster.ShardedCluster.locate_contract` reads
``L_c`` on every shard, so it also finds a contract that no payload
names: one created by another contract mid-call.
"""

from types import SimpleNamespace

import pytest

from repro.chain.tx import (
    BytecodeCallPayload,
    CallPayload,
    DeployBytecodePayload,
    DeployPayload,
    Move1Payload,
    Move2Payload,
    TransferPayload,
    named_contract,
    sign_transaction,
)
from repro.crypto.keys import Address
from repro.gateway.gateway import Gateway
from repro.lang.movable import MovableContract
from repro.runtime import Slot, external, register_contract
from repro.sharding.cluster import ShardedCluster
from repro.statedb.receipts import Receipt
from tests.helpers import (
    ALICE,
    ManualClock,
    StoreContract,
    deploy_store,
    produce,
    run_tx,
)

TARGET = Address(b"\x01" * 20)
CREATED = Address(b"\x02" * 20)

#: a successful receipt carries the created address; a failed one names
#: nothing, whatever it carries
SUCCESS = Receipt("ok", True, 21_000, None, CREATED)
FAILURE = Receipt("failed", False, 21_000, "Revert(no)", CREATED)

# (payload, named without a receipt, with SUCCESS, with FAILURE)
TABLE = {
    "transfer": (TransferPayload(TARGET, 5), None, None, None),
    "deploy": (DeployPayload(b"\x03" * 32), None, CREATED, None),
    "call": (CallPayload(TARGET, "put", (1, 2)), TARGET, TARGET, TARGET),
    "deploy_bytecode": (DeployBytecodePayload(b"\x00"), None, CREATED, None),
    "bytecode_call": (BytecodeCallPayload(TARGET, b"\x01"), TARGET, TARGET, TARGET),
    "move1": (Move1Payload(TARGET, 2), TARGET, TARGET, TARGET),
    "move2": (
        Move2Payload(SimpleNamespace(contract=TARGET, source_chain=1)),
        TARGET,
        TARGET,
        TARGET,
    ),
}


@pytest.mark.parametrize("kind", sorted(TABLE))
def test_named_contract_table(kind):
    payload, bare, success, failure = TABLE[kind]
    assert named_contract(payload) == bare
    assert named_contract(payload, SUCCESS) == success
    assert named_contract(payload, FAILURE) == failure


#: a signed payload may carry anything in its contract field; what is
#: not exactly an Address names nothing
NOT_AN_ADDRESS = (5, "00" * 20, b"\x01" * 20, (b"\x01" * 20,), None)
#: a bundle may lack the field altogether
NO_CONTRACT = SimpleNamespace(source_chain=1)


@pytest.mark.parametrize("field", NOT_AN_ADDRESS, ids=repr)
def test_a_field_that_is_not_an_address_names_nothing(field):
    for payload in (
        CallPayload(field, "put", (1, 2)),
        BytecodeCallPayload(field, b""),
        Move1Payload(field, 2),
        Move2Payload(SimpleNamespace(contract=field, source_chain=1)),
    ):
        assert named_contract(payload, SUCCESS) is None
    odd_return = Receipt("ok", True, 21_000, None, field)
    for deploy in (DeployPayload(b"\x03" * 32), DeployBytecodePayload(b"\x00")):
        assert named_contract(deploy, odd_return) is None
    assert named_contract(Move2Payload(NO_CONTRACT)) is None


def _hostile_bundle(contract):
    """A Move2 bundle a client can sign: anything with signing fields."""
    return SimpleNamespace(contract=contract, signing_fields=lambda: ("forged", 1))


def test_a_hostile_contract_field_halts_no_watched_shard():
    """The hotness signal and the subscription hub both watch the shard
    through the one rule; neither stops its block production."""
    cluster = ShardedCluster(num_shards=2, seed=3)
    plane = cluster.load_plane()
    gateway = Gateway(cluster.node)
    shard = cluster.shard(0)
    clock = ManualClock()
    store = deploy_store(shard, clock, ALICE)
    sub = gateway.watch_contract(shard.chain_id, store)
    hostile = [
        CallPayload(5, "put", (1, 2)),
        BytecodeCallPayload("x", b""),
        Move1Payload(5, 2),
        Move2Payload(_hostile_bundle(5)),
        Move2Payload(SimpleNamespace(signing_fields=lambda: ("forged", 2))),
        # names the watched contract, but carries no source chain
        Move2Payload(_hostile_bundle(store)),
    ]
    txs = [sign_transaction(ALICE, payload) for payload in hostile]
    for tx in txs:
        assert shard.submit(tx)
    height = shard.height
    produce(shard, clock)
    assert shard.height == height + 1
    for tx in txs:
        assert not shard.receipts[tx.tx_id].success
    produce(shard, clock)
    assert shard.height == height + 2
    assert [(event["type"], event["ok"], event["source_chain"]) for event in sub.events] == [
        ("move2", False, None)
    ]
    view = plane.sample(clock.tick())
    assert view.contract_shard == {store: 0}


@register_contract
class ChildSpawner(MovableContract):
    """Creates a :class:`StoreContract` inside a call."""

    spawned = Slot(int, default=0)

    @external
    def spawn(self, salt: int) -> Address:
        self.spawned += 1
        return self.create(StoreContract, salt=salt)


def test_locate_contract_finds_a_contract_created_mid_call():
    cluster = ShardedCluster(num_shards=2, seed=3)
    # The cluster keeps no contract index: the only block listeners on
    # its shards are the node's header relays.
    assert all(
        listener.__qualname__.startswith("HeaderRelay.")
        for shard in cluster.shards
        for listener in shard._listeners
    )
    clock = ManualClock()
    receipt = run_tx(
        cluster.shard(1), clock, ALICE, DeployPayload(code_hash=ChildSpawner.CODE_HASH)
    )
    assert receipt.success, receipt.error
    spawner = receipt.return_value
    call = CallPayload(spawner, "spawn", (7,))
    receipt = run_tx(cluster.shard(1), clock, ALICE, call)
    assert receipt.success, receipt.error
    child = receipt.return_value
    # The transaction names the spawner; only the receipt knows the child.
    assert named_contract(call, receipt) == spawner != child
    assert cluster.locate_contract(child) == 1
    assert cluster.locate_contract(spawner) == 1
    # A contract deployed directly on the other shard is found there.
    assert cluster.locate_contract(deploy_store(cluster.shard(0), clock, ALICE)) == 0

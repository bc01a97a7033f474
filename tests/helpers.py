"""Shared fixtures/utilities for chain-level and protocol tests."""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.chain.chain import Chain
from repro.chain.params import burrow_params, ethereum_params
from repro.chain.tx import (
    CallPayload,
    DeployPayload,
    Move1Payload,
    Move2Payload,
    TransferPayload,
    sign_transaction,
)
from repro.core.registry import ChainRegistry
from repro.crypto.keys import KeyPair
from repro.ibc.headers import connect_chains
from repro.lang.movable import MovableContract
from repro.merkle.proof import MembershipProof
from repro.runtime import MapSlot, external, register_contract, view
from repro.statedb.state import decode_contract_leaf, encode_contract_leaf

ALICE = KeyPair.from_name("alice")
BOB = KeyPair.from_name("bob")
CAROL = KeyPair.from_name("carol")


@register_contract
class StoreContract(MovableContract):
    """A movable key/value store used across protocol tests."""

    values = MapSlot(int, int)

    @external
    def put(self, key: int, value: int) -> None:
        self.values[key] = value

    @view
    def get_value(self, key: int) -> int:
        return self.values[key]


def make_chain_pair(verify_signatures: bool = True) -> Tuple[Chain, Chain]:
    """A Burrow-flavoured chain (id 1) and an Ethereum-flavoured chain
    (id 2), fully meshed with instant header relays."""
    registry = ChainRegistry()
    burrow = Chain(burrow_params(1), registry, verify_signatures=verify_signatures)
    ethereum = Chain(ethereum_params(2), registry, verify_signatures=verify_signatures)
    connect_chains([burrow, ethereum])
    return burrow, ethereum


class ManualClock:
    """Monotonic timestamps for manual block production."""

    def __init__(self, step: float = 5.0):
        self.now = 0.0
        self.step = step

    def tick(self) -> float:
        self.now += self.step
        return self.now


def produce(chain: Chain, clock: ManualClock, count: int = 1) -> None:
    """Produce ``count`` blocks with advancing timestamps."""
    for _ in range(count):
        chain.produce_block(clock.tick())


def run_tx(chain: Chain, clock: ManualClock, keypair: KeyPair, payload) -> "Receipt":
    """Submit, include in the next block, and return the receipt."""
    tx = sign_transaction(keypair, payload)
    chain.submit(tx)
    produce(chain, clock)
    return chain.receipts[tx.tx_id]


def deploy_store(chain: Chain, clock: ManualClock, owner: KeyPair):
    """Deploy a StoreContract owned by ``owner``; returns its address."""
    receipt = run_tx(chain, clock, owner, DeployPayload(code_hash=StoreContract.CODE_HASH))
    assert receipt.success, receipt.error
    return receipt.return_value


def full_move(
    source: Chain,
    target: Chain,
    clock: ManualClock,
    mover: KeyPair,
    contract,
) -> "Receipt":
    """Drive a complete Move1 → wait → Move2 with manual blocks."""
    receipt1 = run_tx(
        source, clock, mover, Move1Payload(contract=contract, target_chain=target.chain_id)
    )
    assert receipt1.success, receipt1.error
    inclusion = receipt1.block_height
    while source.height < source.proof_ready_height(inclusion):
        produce(source, clock)
    bundle = source.prove_contract_at(contract, inclusion)
    return run_tx(target, clock, mover, Move2Payload(bundle=bundle))


def forge_leaf(bundle, **fields):
    """``bundle`` with its account proof's contract leaf re-encoded with
    ``fields`` (``balance``, ``location``, ``move_nonce``, ``code_hash``,
    ``storage_root``) replaced — the only place a Move2 bundle carries
    them.  The forged leaf folds to a root no header commits."""
    proof = bundle.account_proof
    leaf = decode_contract_leaf(proof.value)._replace(**fields)
    forged = MembershipProof(
        key=proof.key,
        value=encode_contract_leaf(leaf, leaf.storage_root),
        leaf_prefix=proof.leaf_prefix,
        steps=proof.steps,
    )
    return dataclasses.replace(bundle, account_proof=forged)


def fill_replicas(gateway, chain_id: int, per_replica: int) -> None:
    """Queue ``per_replica`` unflushed transfers on every replica of a
    (not yet started) gateway, each through a client pinned to it."""
    clients: Dict[int, str] = {}
    index = 0
    while len(clients) < len(gateway.replicas):
        client_id = f"client-{index}"
        clients.setdefault(gateway.replica_for(client_id).index, client_id)
        index += 1
    nonce = 0
    for client_id in clients.values():
        for _ in range(per_replica):
            payload = TransferPayload(to=BOB.address, amount=1)
            tx = sign_transaction(ALICE, payload, nonce=nonce)
            assert gateway.submit(tx, chain_id, client_id=client_id).error is None
            nonce += 1

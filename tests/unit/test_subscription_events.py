"""Push subscriptions name a contract the way every other reader does.

A ``watch_contract`` subscriber is told about each committed
transaction that :func:`~repro.chain.tx.named_contract` attributes to
the watched address — a raw bytecode deploy included.
"""

from repro.api import Client, Gateway, Node, burrow_params
from repro.chain.tx import DeployBytecodePayload
from repro.crypto.hashing import keccak_code
from repro.crypto.keys import KeyPair, create2_address
from repro.vm.assembler import assemble

DEPLOYER = KeyPair.from_name("subscription-deployer")


def test_bytecode_deploy_pushes_a_deploy_event_to_the_created_address():
    node = Node(burrow_params(1, max_block_txs=100), verify_signatures=False)
    node.chain(1).fund({DEPLOYER.address: 10**9})
    gateway = Gateway(node)
    client = Client(gateway, keypair=DEPLOYER)
    code = assemble("STOP")
    # CREATE2: the address is known before the deploy commits.
    created = create2_address(1, DEPLOYER.address, 7, keccak_code(code))
    sub = client.watch_contract(created)
    gateway.start()
    receipt = client.submit_payload(DeployBytecodePayload(code=code, salt=7)).wait()
    gateway.stop()
    assert receipt.success, receipt.error
    assert receipt.return_value == created
    assert [event["type"] for event in sub.events] == ["deploy"]
    event = sub.events[0]
    assert event["ok"] is True
    assert event["chain"] == 1
    assert event["tx_id"] == receipt.tx_id
    assert event["height"] == receipt.block_height

"""Read-only queries run ``@view`` methods and nothing else.

A query is unsigned, unmetered and runs outside any transaction, so a
mutating external or a private helper dispatched through it would
write state no one signed — and the journaled write would be folded
into the next block.  Every read surface funnels into
``Runtime.view``; these tests drive it through ``Chain.view`` and
``Gateway.view``.
"""

import pytest

from repro.chain.chain import Chain
from repro.chain.params import burrow_params
from repro.core.registry import ChainRegistry
from repro.crypto.hashing import keccak
from repro.errors import InvalidRequest, NotAViewError
from repro.gateway import Gateway
from repro.lang.movable import MovableContract
from repro.node import Node
from repro.runtime import Slot, external, register_contract, view
from tests.helpers import ALICE, DeployPayload, ManualClock, produce, run_tx


@register_contract
class Vault(MovableContract):
    """Holds one number; ``drain`` zeroes it."""

    amount = Slot(int)

    def init(self) -> None:
        self.amount = 100

    @external
    def drain(self) -> None:
        self.amount = 0

    @view
    def peek(self) -> int:
        return self.amount


FORBIDDEN = [
    ("drain", ()),  # a mutating external
    ("_storage_write", (keccak(b"slot", b"amount"), b"")),  # a private helper
    ("init", ()),  # the constructor
    ("no_such_method", ()),
]


def _chain_with_vault():
    chain = Chain(burrow_params(1), ChainRegistry())
    clock = ManualClock()
    receipt = run_tx(chain, clock, ALICE, DeployPayload(code_hash=Vault.CODE_HASH))
    assert receipt.success, receipt.error
    return chain, clock, receipt.return_value


@pytest.mark.parametrize("method,args", FORBIDDEN, ids=[m for m, _ in FORBIDDEN])
def test_chain_view_refuses_non_view_methods(method, args):
    chain, clock, vault = _chain_with_vault()
    produce(chain, clock)
    root = chain.state.committed_root
    with pytest.raises(NotAViewError, match=method):
        chain.view(vault, method, *args)
    assert chain.view(vault, "peek") == 100
    produce(chain, clock)  # an empty block: nothing may have been journaled
    assert chain.state.committed_root == root
    assert chain.view(vault, "peek") == 100


def test_gateway_view_refuses_non_view_methods_with_a_wire_code():
    node = Node([burrow_params(1)], seed=3)
    node.chain(1).fund({ALICE.address: 10**9})
    gateway = Gateway(node)
    gateway.start()
    chain = node.chain(1)
    clock = ManualClock()
    receipt = run_tx(chain, clock, ALICE, DeployPayload(code_hash=Vault.CODE_HASH))
    assert receipt.success, receipt.error
    vault = receipt.return_value
    assert gateway.view(1, vault, "peek") == 100
    for method, args in FORBIDDEN:
        with pytest.raises(NotAViewError) as raised:
            gateway.view(1, vault, method, *args)
        assert isinstance(raised.value, InvalidRequest)
        assert raised.value.to_dict()["code"] == "not_a_view"
        assert method in raised.value.to_dict()["message"]
    assert gateway.view(1, vault, "peek") == 100

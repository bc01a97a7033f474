"""Quickstart: move a smart contract between two blockchains.

Everything goes through the stable :mod:`repro.api` facade — the way
an application would use the reproduction.  A :class:`~repro.api.Node`
owns a Burrow-flavoured chain (Tendermint-style, 5 s blocks) and an
Ethereum-flavoured chain (PoW-style, 15 s blocks) plus the header
relays between them; a :class:`~repro.api.Gateway` fronts the node
with bounded admission; a :class:`~repro.api.Client` signs, submits
and awaits futures.  One `client.move(...)` call drives the full Move
protocol (Move1 → proof wait → Move2) and resolves a
:class:`~repro.api.MoveHandle` when the contract is live on the other
chain.

Run:  python examples/quickstart.py
"""

from repro import api


@api.register_contract
class GuestBook(api.MovableContract):
    """A movable contract: owner-gated moves come from MovableContract."""

    entries = api.MapSlot(int, bytes)

    @api.external
    def write(self, index: int, message: bytes) -> None:
        self.entries[index] = message

    @api.view
    def read(self, index: int) -> bytes:
        return self.entries[index]


def main() -> None:
    # A node serving two chains that have agreed on Move-protocol
    # parameters and relay each other's headers, fronted by a gateway.
    node = api.Node([api.burrow_params(1), api.ethereum_params(2)])
    gateway = api.Gateway(node)
    alice = api.Client(gateway, name="alice")
    gateway.start()

    # 1. Deploy and use the contract on the Burrow chain.
    receipt = alice.wait(alice.deploy(GuestBook, chain=1))
    book = receipt.return_value
    alice.wait(alice.call(book, "write", 1, b"hello from burrow", chain=1))
    print(f"deployed GuestBook at {book} on chain 1")

    # 2. One call runs the whole protocol; the handle reports the stage.
    handle = alice.move(book, source_chain=1, target_chain=2)
    node.run_until(lambda: handle.stage != "move1")
    print(f"Move1 included at Burrow height {node.chain(1).height}; "
          "contract now locked there")

    # 3. The gateway waits out the confirmation depth, builds the Merkle
    #    proof bundle, and submits Move2 on the target chain.
    phases = alice.wait(handle)
    assert phases.success, phases.error
    print(f"proof waited {phases.wait_proof_time:.0f} s "
          "(root published and p-confirmed at the source)")
    print(f"Move2 executed on chain 2 ({phases.gas.get('move2', 0):,} gas)")

    # 4. The state moved; the source copy is locked but readable.
    assert alice.view(book, "read", 1, chain=2) == b"hello from burrow"
    alice.wait(alice.call(book, "write", 2, b"hello from ethereum", chain=2))
    print("state verified on the target chain; new writes accepted there")
    assert node.chain(1).state.is_locked(book)
    print(f"source copy: locked (L_c = {node.chain(1).location_of(book)}), "
          f"reads still work: {alice.view(book, 'read', 1, chain=1)!r}")


if __name__ == "__main__":
    main()

"""The five IBC applications of Section VIII, as a reusable harness.

An :class:`IBCExperiment` is a :class:`~repro.node.Node` over one
Burrow-flavoured and one Ethereum-flavoured chain under the
``"consensus"`` driver (Tendermint and proof-of-work over the simulated
WAN, each chain observing the other), plus the bridge that
drives moves between them.  Each scenario prepares contracts on the two
chains, then performs one measured cross-chain operation:

* **SCoin** — move a token account, then transfer one token to an
  account resident on the target chain (one completion transaction);
* **ScalableKitties** — move a cat, breed it with a resident cat, give
  birth (two completion transactions);
* **Store 1 / 10 / 100** — move a contract holding N 32-byte variables
  (no completion transactions).

The returned :class:`~repro.ibc.bridge.MovePhases` carries both the
Fig. 8 latency phases and the Fig. 9 gas breakdown.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.apps.kitties import KittyRegistry
from repro.apps.scoin import SCoin
from repro.apps.store import StateStore
from repro.chain.chain import Chain
from repro.chain.params import burrow_params, ethereum_params
from repro.chain.tx import CallPayload, DeployPayload, sign_transaction
from repro.crypto.keys import Address, KeyPair
from repro.errors import SimulationError
from repro.ibc.bridge import IBCBridge, MovePhases
from repro.node import Node
from repro.telemetry import Telemetry

BURROW_ID = 1
ETHEREUM_ID = 2

#: simulated seconds a setup transaction / a whole move may take before
#: :meth:`IBCExperiment.sync_tx` / :meth:`IBCExperiment.sync_move` give up
SYNC_TX_TIMEOUT = 2_000.0
SYNC_MOVE_TIMEOUT = 5_000.0

APPS = ("scoin", "kitties", "store1", "store10", "store100")
APP_LABELS = {
    "scoin": "SCoin",
    "kitties": "ScalableKitties",
    "store1": "Store 1",
    "store10": "Store 10",
    "store100": "Store 100",
}


class IBCExperiment(Node):
    """One Burrow + one Ethereum chain under live consensus."""

    def __init__(
        self,
        seed: int = 0,
        burrow_overrides: Optional[dict] = None,
        ethereum_overrides: Optional[dict] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        super().__init__(
            [
                burrow_params(BURROW_ID, **(burrow_overrides or {})),
                ethereum_params(ETHEREUM_ID, **(ethereum_overrides or {})),
            ],
            seed=seed,
            driver="consensus",
            telemetry=telemetry,
            verify_signatures=False,
        )
        self.burrow = self.chains[BURROW_ID]
        self.ethereum = self.chains[ETHEREUM_ID]
        self.bridge = IBCBridge(self.sim, [self.burrow, self.ethereum])
        self.user = KeyPair.from_name("ibc-user")
        self.peer = KeyPair.from_name("ibc-peer")
        self.start()

    # ------------------------------------------------------------------
    # Synchronous driving helpers (setup phases, not measured)
    # ------------------------------------------------------------------

    def sync_tx(self, chain: Chain, keypair: KeyPair, payload):
        """Submit and drive the simulator until the receipt lands."""
        tx = sign_transaction(keypair, payload)
        done: List = []
        chain.wait_for(tx.tx_id, done.append)
        self.sim.schedule(0.05, chain.submit, tx)
        deadline = self.sim.now + SYNC_TX_TIMEOUT
        while not done and self.sim.now < deadline:
            self.sim.run(until=self.sim.now + 5.0)
        if not done:
            raise SimulationError(f"transaction not included within {SYNC_TX_TIMEOUT}s")
        receipt = done[0]
        if not receipt.success:
            raise SimulationError(f"setup transaction failed: {receipt.error}")
        return receipt

    def sync_move(
        self,
        mover: KeyPair,
        contract: Address,
        source_id: int,
        target_id: int,
        completions: Sequence = (),
    ) -> MovePhases:
        """Run a full move to completion, driving the simulator."""
        done: List[MovePhases] = []
        self.bridge.move_contract(
            mover, contract, source_id, target_id,
            completions=completions, on_done=done.append,
        )
        deadline = self.sim.now + SYNC_MOVE_TIMEOUT
        while not done and self.sim.now < deadline:
            self.sim.run(until=self.sim.now + 5.0)
        if not done:
            raise SimulationError(f"move did not complete within {SYNC_MOVE_TIMEOUT}s")
        phases = done[0]
        if not phases.success:
            raise SimulationError(f"move failed: {phases.error}")
        return phases

    # ------------------------------------------------------------------
    # Scenarios
    # ------------------------------------------------------------------

    def run_app(self, app: str, source_id: int, target_id: int) -> MovePhases:
        """Prepare and execute one measured cross-chain operation."""
        if app == "scoin":
            return self._run_scoin(source_id, target_id)
        if app == "kitties":
            return self._run_kitties(source_id, target_id)
        if app.startswith("store"):
            return self._run_store(int(app[len("store"):]), source_id, target_id)
        raise ValueError(f"unknown IBC app {app!r}")

    def _run_scoin(self, source_id: int, target_id: int) -> MovePhases:
        source = self.chain(source_id)
        token = self.sync_tx(
            source, self.user, DeployPayload(code_hash=SCoin.CODE_HASH)
        ).return_value
        acc_a, _ = self.sync_tx(
            source, self.user, CallPayload(token, "new_account")
        ).return_value
        acc_b, _ = self.sync_tx(
            source, self.peer, CallPayload(token, "new_account")
        ).return_value
        self.sync_tx(source, self.user, CallPayload(token, "mint_to", (acc_a, 10)))
        # Setup (unmeasured): the destination account already lives on
        # the target chain.
        self.sync_move(self.peer, acc_b, source_id, target_id)

        def transfer(mover: KeyPair):
            return sign_transaction(
                mover, CallPayload(acc_a, "transfer_tokens", (acc_b, 1))
            )

        return self.sync_move(
            self.user, acc_a, source_id, target_id, completions=(transfer,)
        )

    def _run_kitties(self, source_id: int, target_id: int) -> MovePhases:
        source = self.chain(source_id)
        target = self.chain(target_id)
        registry_src = self.sync_tx(
            source, self.user, DeployPayload(code_hash=KittyRegistry.CODE_HASH)
        ).return_value
        registry_dst = self.sync_tx(
            target, self.user, DeployPayload(code_hash=KittyRegistry.CODE_HASH)
        ).return_value
        travelling = self.sync_tx(
            source, self.user,
            CallPayload(registry_src, "create_promo_kitty", (self.user.address,)),
        ).return_value
        resident = self.sync_tx(
            target, self.user,
            CallPayload(registry_dst, "create_promo_kitty", (self.user.address,)),
        ).return_value

        def breed(mover: KeyPair):
            return sign_transaction(
                mover, CallPayload(resident, "breed_with", (travelling,))
            )

        def give_birth(mover: KeyPair):
            return sign_transaction(mover, CallPayload(resident, "give_birth"))

        return self.sync_move(
            self.user, travelling, source_id, target_id,
            completions=(breed, give_birth),
        )

    def _run_store(self, slots: int, source_id: int, target_id: int) -> MovePhases:
        source = self.chain(source_id)
        store = self.sync_tx(
            source, self.user,
            DeployPayload(code_hash=StateStore.CODE_HASH, args=(slots,)),
        ).return_value
        return self.sync_move(self.user, store, source_id, target_id)


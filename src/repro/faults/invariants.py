"""Cross-chain safety invariants, checked after every simulated block.

The Move Prover (arXiv:2110.08362) machine-checks invariants of Move
*programs*; this module does the dynamic analogue for the Move
*protocol*: every property the paper's safety argument rests on is
re-asserted against the full multi-chain state each time any chain
commits a block, so a distributed-systems bug surfaces at the first
block that violates it — with the seed to replay it.

The four invariants:

I1 **single mutability** — a contract is *active* (``L_c`` equals the
   hosting chain's id) on at most one chain at any block boundary; all
   other copies are locked relics (Section III-B).

I2 **move-nonce monotonicity** — per chain, a contract's move nonce
   never decreases, and the active copy always carries the highest
   nonce that exists anywhere; a Move2 replay of a stale bundle
   (Fig. 2) would recreate an active copy *below* some relic's nonce
   and is caught here even if the runtime's guard were broken.

I3 **pegged-supply conservation** — every
   :class:`~repro.core.relay.RelayedFunds` escrow backs its minted
   pegged tokens with at least as much locked native currency
   (``minted <= amount`` on the current copy), so the relay can never
   inflate value; optionally, the total movable-token supply
   (:class:`~repro.apps.scoin.SAccount` balances over current copies)
   must equal the amount the experiment minted.

I4 **commitment integrity** — each chain's committed account tree
   recommits every live record exactly: the membership proof of every
   account/contract verifies against ``committed_root`` and its leaf
   equals the canonical encoding of the in-memory record, with the
   storage root matching the canonical (sorted-rebuild) definition.
   A write that dodged dirty tracking, or a trie fold that diverged
   from the canonical root, fails here on the very next block.

At the end of a run, :meth:`InvariantChecker.check_trusted_headers`
also asserts ``VS``'s trust boundary: no light client holds a
``p``-confirmed header of a BFT source that the source never committed.

Violations raise :class:`~repro.errors.InvariantViolation` immediately,
aborting the simulation at the first bad block.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.chain.chain import Chain
from repro.crypto.keys import Address
from repro.errors import InvariantViolation
from repro.statedb.state import (
    ContractRecord,
    compute_storage_root,
    encode_account_leaf,
    encode_contract_leaf,
)


def _slot_int(record: ContractRecord, key: bytes) -> int:
    raw = record.storage.get(key, b"")
    return int.from_bytes(raw, "big") if raw else 0


class InvariantChecker:
    """Asserts the paper's cross-chain safety properties continuously."""

    def __init__(
        self,
        chains: Iterable[Chain],
        expected_token_supply: Optional[int] = None,
    ):
        self.chains: List[Chain] = list(chains)
        #: when set, I3 additionally asserts the global SAccount token
        #: supply equals this amount (set it once minting is finished)
        self.expected_token_supply = expected_token_supply
        self.checks_run = 0
        self.violations_found = 0
        #: called with the formatted message just before a violation
        #: raises — the health plane's flight recorder dumps its
        #: postmortem bundle here, while the world is still intact
        self.on_violation: Optional[object] = None
        self._nonce_high: Dict[Tuple[int, bytes], int] = {}
        self._subscriptions: List[Tuple[Chain, object]] = []
        self._code_hashes_loaded = False
        self._saccount_hash = b""
        self._relay_hash = b""
        self._token_key = b""
        self._minted_key = b""
        self._amount_key = b""

    # ------------------------------------------------------------------

    def attach(self) -> None:
        """Subscribe to every chain: check after each produced block."""
        for chain in self.chains:
            listener = lambda block, _receipts, c=chain: self.check_all(c)
            chain.subscribe(listener)
            self._subscriptions.append((chain, listener))

    def detach(self) -> None:
        """Stop checking (e.g. before a deliberately unsound teardown)."""
        for chain, listener in self._subscriptions:
            chain.unsubscribe(listener)
        self._subscriptions.clear()

    def _fail(self, invariant: str, message: str) -> None:
        self.violations_found += 1
        formatted = f"[{invariant}] {message}"
        if self.on_violation is not None:
            self.on_violation(formatted)
        raise InvariantViolation(formatted)

    # ------------------------------------------------------------------

    def check_all(self, committed_chain: Optional[Chain] = None) -> None:
        """Run every invariant; ``committed_chain`` scopes the (costly)
        commitment-integrity sweep to the chain that just committed."""
        self.checks_run += 1
        copies = self._collect_copies()
        self._check_single_mutability(copies)
        self._check_nonce_monotonicity(copies)
        self._check_conservation(copies)
        targets = [committed_chain] if committed_chain is not None else self.chains
        for chain in targets:
            self._check_commitment_integrity(chain)

    def final_check(self) -> None:
        """Full sweep at the end of a run: every invariant on every
        chain, plus each ledger's structural self-audit."""
        self.check_all(committed_chain=None)
        for chain in self.chains:
            chain.verify_chain()

    def check_trusted_headers(self) -> None:
        """Every ``p``-confirmed canonical header an observer holds of a
        Burrow (final) source is the header that source committed at
        that height.  PoW sources are skipped: a longer branch may
        replace a confirmed header by design, and the store counts that
        in ``deep_reorgs``."""
        for source in self.chains:
            if source.params.flavor != "burrow":
                continue
            for observer in self.chains:
                store = observer.light_client.store_for(source.chain_id)
                if store is None:
                    continue
                for height in range(store.head_height - store.confirmation_depth + 1):
                    trusted = store.header_at(height)
                    if (
                        height > source.height
                        or trusted.hash() != source.blocks[height].hash()
                    ):
                        self._fail(
                            "VS-trust",
                            f"chain {observer.chain_id} trusts a chain-"
                            f"{source.chain_id} header at height {height} "
                            "that the source never committed",
                        )

    # ------------------------------------------------------------------
    # I1 + I2 + I3 helpers
    # ------------------------------------------------------------------

    def _collect_copies(self) -> Dict[bytes, List[Tuple[Chain, ContractRecord]]]:
        copies: Dict[bytes, List[Tuple[Chain, ContractRecord]]] = {}
        for chain in self.chains:
            for address, record in chain.state.contracts.items():
                copies.setdefault(address.raw, []).append((chain, record))
        return copies

    @staticmethod
    def _current_copy(
        copies: List[Tuple[Chain, ContractRecord]]
    ) -> Tuple[Optional[Chain], ContractRecord]:
        """The copy holding the contract's current state: the active one
        if any, else the highest-nonce locked relic (mid-move)."""
        for chain, record in copies:
            if record.location == chain.chain_id:
                return chain, record
        chain, record = max(copies, key=lambda pair: pair[1].move_nonce)
        return None, record

    def _check_single_mutability(self, copies) -> None:
        for raw, chain_copies in copies.items():
            active = [
                chain.chain_id
                for chain, record in chain_copies
                if record.location == chain.chain_id
            ]
            if len(active) > 1:
                self._fail(
                    "I1-single-mutability",
                    f"contract {Address(raw)} is active on chains {active}",
                )

    def _check_nonce_monotonicity(self, copies) -> None:
        for raw, chain_copies in copies.items():
            highest = max(record.move_nonce for _chain, record in chain_copies)
            for chain, record in chain_copies:
                key = (chain.chain_id, raw)
                seen = self._nonce_high.get(key, -1)
                if record.move_nonce < seen:
                    self._fail(
                        "I2-nonce-monotonic",
                        f"contract {Address(raw)} on chain {chain.chain_id} "
                        f"regressed its move nonce {seen} -> {record.move_nonce}",
                    )
                self._nonce_high[key] = record.move_nonce
                if (
                    record.location == chain.chain_id
                    and record.move_nonce < highest
                ):
                    self._fail(
                        "I2-nonce-monotonic",
                        f"active copy of {Address(raw)} on chain {chain.chain_id} "
                        f"has nonce {record.move_nonce} < relic nonce {highest} "
                        "(stale Move2 replayed)",
                    )

    def _load_code_hashes(self) -> None:
        if self._code_hashes_loaded:
            return
        from repro.apps.scoin import SAccount
        from repro.core.relay import RelayedFunds

        self._saccount_hash = SAccount.CODE_HASH
        self._relay_hash = RelayedFunds.CODE_HASH
        self._token_key = SAccount.token_count.key
        self._minted_key = RelayedFunds.minted.key
        self._amount_key = RelayedFunds.amount.key
        self._code_hashes_loaded = True

    def _check_conservation(self, copies) -> None:
        self._load_code_hashes()
        token_supply = 0
        saw_accounts = False
        for raw, chain_copies in copies.items():
            code_hash = chain_copies[0][1].code_hash
            if code_hash == self._relay_hash:
                _chain, current = self._current_copy(chain_copies)
                minted = _slot_int(current, self._minted_key)
                amount = _slot_int(current, self._amount_key)
                if minted > amount:
                    self._fail(
                        "I3-pegged-supply",
                        f"escrow {Address(raw)} minted {minted} pegged tokens "
                        f"against only {amount} locked units",
                    )
            elif code_hash == self._saccount_hash:
                saw_accounts = True
                _chain, current = self._current_copy(chain_copies)
                token_supply += _slot_int(current, self._token_key)
        if (
            self.expected_token_supply is not None
            and saw_accounts
            and token_supply != self.expected_token_supply
        ):
            self._fail(
                "I3-token-supply",
                f"movable-token supply is {token_supply}, "
                f"expected {self.expected_token_supply}",
            )

    # ------------------------------------------------------------------
    # I4: commitment integrity
    # ------------------------------------------------------------------

    def _check_commitment_integrity(self, chain: Chain) -> None:
        state = chain.state
        if state._dirty:
            # Mid-maintenance (e.g. GC between blocks): the dicts are
            # deliberately ahead of the tree until the next commit.
            return
        root = state.committed_root
        factory = state.tree_factory
        for address, record in state.contracts.items():
            canonical_storage = compute_storage_root(factory, record.storage)
            expected_leaf = encode_contract_leaf(record, canonical_storage)
            self._check_leaf(chain, address, expected_leaf, root)
            live_root = state._live_storage_trie(address).root_hash
            if live_root != canonical_storage:
                self._fail(
                    "I4-commitment",
                    f"chain {chain.chain_id} live storage trie of {address} "
                    "diverged from the canonical sorted rebuild",
                )
        for address, account in state.accounts.items():
            self._check_leaf(chain, address, encode_account_leaf(account), root)

    def _check_leaf(
        self, chain: Chain, address: Address, expected_leaf: bytes, root: bytes
    ) -> None:
        try:
            proof = chain.state.prove_account(address)
        except KeyError:
            self._fail(
                "I4-commitment",
                f"chain {chain.chain_id} never committed {address}",
            )
            return
        if proof.value != expected_leaf:
            self._fail(
                "I4-commitment",
                f"chain {chain.chain_id} committed a stale leaf for {address} "
                "(a write dodged dirty tracking?)",
            )
        if proof.computed_root() != root:
            self._fail(
                "I4-commitment",
                f"chain {chain.chain_id} account proof of {address} does not "
                "reach the committed root",
            )

"""The chain facade: one replicated state machine.

A :class:`Chain` owns the world state, runtime, mempool and block list;
a consensus engine (:mod:`repro.consensus`) decides *when*
:meth:`produce_block` fires.  The chain also serves the Move protocol's
data needs:

* it serves **historical** account proofs (a Move2 proof targets the
  root of the Move1 block, which is ``p`` blocks behind the head by the
  time the proof is usable).  It keeps no old trees: when a block
  commits, it proves the keys a peer may later ask about at that
  height — every contract leaf written while locked (``L_c`` ≠ this
  chain: a Move1, or a contract created locked) and every replicated
  contract — and keeps those proofs beside the post-state root for
  ``snapshot_retention`` blocks.  The head is served from the live
  committed tree;
* it exposes the header stream that peer chains' light clients consume;
* its own :class:`~repro.chain.lightclient.LightClient` holds the peer
  headers that ``VS`` checks during Move2 execution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.chain.block import GENESIS_PARENT, Block, BlockHeader, transactions_root
from repro.chain.executor import TransactionExecutor
from repro.chain.lightclient import LightClient
from repro.chain.mempool import Mempool
from repro.chain.params import ChainParams
from repro.chain.tx import Transaction
from repro.core.proofs import ContractStateProof, RemoteStateProof
from repro.core.registry import ChainRegistry
from repro.crypto.keys import Address
from repro.errors import ProofError, StateError
from repro.merkle.proof import MembershipProof
from repro.runtime.context import BlockEnv
from repro.runtime.runtime import Runtime
from repro.statedb.receipts import Receipt
from repro.statedb.state import ContractRecord, WorldState, encode_contract_leaf
from repro.telemetry import Telemetry

if TYPE_CHECKING:
    from repro.net.sim import Simulator

BlockListener = Callable[[Block, List[Receipt]], None]


class Chain:
    """One blockchain: state machine + ledger + light clients."""

    def __init__(
        self,
        params: ChainParams,
        registry: Optional[ChainRegistry] = None,
        verify_signatures: bool = True,
        telemetry: Optional[Telemetry] = None,
    ):
        self.params = params
        self.registry = registry if registry is not None else ChainRegistry()
        if params.chain_id not in self.registry:
            self.registry.register(params)
        #: shared tracing + metrics; the default is a private, disabled
        #: bundle so an un-instrumented chain stays dependency-free
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        metrics = self.telemetry.metrics
        self._m_blocks = metrics.counter("chain_blocks_total", chain=params.chain_id)
        self._m_block_txs = metrics.histogram("chain_block_txs", chain=params.chain_id)
        self._m_headers_in = metrics.counter(
            "lightclient_headers_total", chain=params.chain_id
        )
        self.state = WorldState(params.chain_id, params.tree_factory)
        self.runtime = Runtime(self.state, params.gas_schedule)
        self.light_client = LightClient()
        self.executor = TransactionExecutor(
            self.runtime,
            self.light_client,
            self.registry,
            verify_signatures,
            gas_price=params.gas_price,
            telemetry=self.telemetry,
            chain_id=params.chain_id,
        )
        self.mempool = Mempool(metrics=metrics, chain_id=params.chain_id)
        self.blocks: List[Block] = []
        self.receipts: Dict[str, Receipt] = {}
        self._post_roots: Dict[int, bytes] = {}
        #: height -> {address: account proof against that height's root},
        #: captured at commit for the keys peers may ask about (see above)
        self._proofs: Dict[int, Dict[Address, MembershipProof]] = {}
        #: lowest non-genesis height whose root is still retained;
        #: advances as produce_block prunes past the retention horizon
        self._snapshot_floor = 1
        self._listeners: List[BlockListener] = []
        #: called after each *peer* header is ingested by the light
        #: client — the replication relays' sync trigger (store first,
        #: listener second, so a listener always sees the new head)
        self._header_listeners: List[Callable[[BlockHeader], None]] = []
        #: per-contract capture of storage deltas at block boundaries,
        #: serving staleness-bounded replica updates (repro.replicate)
        self._replication_logs: Dict[Address, Any] = {}
        self._waiters: Dict[str, List[Callable[[Receipt], None]]] = {}
        self._make_genesis()

    # ------------------------------------------------------------------
    # Genesis / identity
    # ------------------------------------------------------------------

    @property
    def chain_id(self) -> int:
        return self.params.chain_id

    @property
    def height(self) -> int:
        return self.blocks[-1].height if self.blocks else -1

    @property
    def head(self) -> Block:
        return self.blocks[-1]

    def _make_genesis(self) -> None:
        self._commit(0)
        header = BlockHeader(
            chain_id=self.chain_id,
            height=0,
            parent_hash=GENESIS_PARENT,
            state_root=self._post_roots[0],
            txs_root=transactions_root([]),
            timestamp=0.0,
            proposer="genesis",
        )
        self.blocks.append(Block(header=header, transactions=[]))

    def fund(self, allocations: Dict[Address, int]) -> None:
        """Credit genesis balances between blocks (call before the
        experiment starts, never inside a transaction).

        Not journaled (:meth:`WorldState.fund`), and atomic: an
        allocation :meth:`WorldState.add_balance` would refuse raises
        :class:`StateError` with nothing credited.  Then re-commits the
        state so the head's root reflects the funding; the first
        funding of a fresh chain builds its account tree in one pass.
        """
        self.state.fund(allocations)
        self._commit(self.height)

    def _commit(self, height: int) -> None:
        """Commit the state as block ``height``'s post-state, and prove
        against its root every key a peer may ask about at ``height``:
        the contract leaves the commit wrote while locked, every
        replicated contract, and (on a re-commit) whatever was already
        captured there."""
        self._post_roots[height] = self.state.commit()
        wanted = [
            *self._proofs.pop(height, ()),
            *self.state.locked_leaves,
            *self._replication_logs,
        ]
        if wanted:
            prove = self.state.prove_account
            self._proofs[height] = {address: prove(address) for address in wanted}

    def _contract_claim(
        self, address: Address, height: int
    ) -> Tuple[ContractRecord, MembershipProof, bytes]:
        """What every proof of a contract starts from: its record, its
        account proof against block ``height``'s root (the live tree's
        at the head, else the one captured when ``height`` committed)
        and its code; each miss is a :class:`ProofError`."""
        record = self.state.contract(address)
        if record is None:
            raise ProofError(f"no contract at {address}")
        if height == self.height:
            try:
                account_proof = self.state.prove_account(address)
            except KeyError:
                raise ProofError(f"contract not committed at height {height}") from None
        else:
            account_proof = self._proofs.get(height, {}).get(address)
            if account_proof is None:
                raise ProofError(f"no state snapshot at height {height}")
        code = self.state.code_store.get(record.code_hash)
        if code is None:
            raise ProofError("contract code missing from the code store")
        return record, account_proof, code

    def _unchanged_claim(
        self, address: Address, height: int
    ) -> Tuple[ContractRecord, MembershipProof, bytes]:
        """:meth:`_contract_claim` for a proof served from the live
        record, with its one self-check: the record and its live storage
        trie still encode the leaf proven at ``height``.  Nothing is
        rebuilt — between blocks the live trie's root is the canonical
        root of the record's storage (invariant I4), and a GC wipe since
        the last commit empties the trie, so a wiped contract is refused."""
        record, account_proof, code = self._contract_claim(address, height)
        storage_root = self.state._live_storage_trie(address).root_hash
        if account_proof.value != encode_contract_leaf(record, storage_root):
            raise ProofError(
                f"contract state at head no longer matches height {height} "
                "(was it modified after the proof height?)"
            )
        return record, account_proof, code

    # ------------------------------------------------------------------
    # Transactions and blocks
    # ------------------------------------------------------------------

    def submit(self, tx: Transaction) -> bool:
        """Queue a transaction for inclusion; False for duplicates.

        Duplicate delivery is idempotent end-to-end: the mempool
        de-duplicates *pending* transactions, and a copy arriving after
        the original already executed (a gossip duplicate delayed past
        inclusion) is rejected here — without this receipt check the
        transaction would re-enter the mempool and execute twice.
        """
        tracer = self.telemetry.tracer
        if tx.tx_id in self.receipts:
            if tracer.enabled and tx.meta:
                tracer.meta_event(tx.meta, "mempool.duplicate", chain=self.chain_id)
            return False
        admitted = self.mempool.add(tx)
        if tracer.enabled and tx.meta:
            tracer.meta_event(
                tx.meta,
                "mempool.admit" if admitted else "mempool.duplicate",
                chain=self.chain_id,
            )
        return admitted

    def subscribe(self, listener: BlockListener) -> None:
        """Invoke ``listener(block, receipts)`` after each block."""
        self._listeners.append(listener)

    def unsubscribe(self, listener: BlockListener) -> None:
        """Detach a block listener (no-op if absent)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def wait_for(self, tx_id: str, callback: Callable[[Receipt], None]) -> None:
        """Invoke ``callback(receipt)`` when the transaction executes.

        Fires immediately if the transaction is already in a block.
        """
        receipt = self.receipts.get(tx_id)
        if receipt is not None:
            callback(receipt)
            return
        waiters = self._waiters.get(tx_id)
        if waiters is None:
            self._waiters[tx_id] = [callback]
        else:
            waiters.append(callback)

    def produce_block(
        self,
        timestamp: float,
        proposer: str = "",
        txs: Optional[List[Transaction]] = None,
    ) -> Block:
        """Execute the next block (consensus calls this at commit time).

        ``txs`` lets the consensus engine fix the block contents at
        proposal time (Tendermint semantics); when omitted, the block
        takes the mempool head at commit time (PoW-style, where the
        winning miner assembled the block just before finding it).
        """
        height = self.height + 1
        env = BlockEnv(chain_id=self.chain_id, height=height, timestamp=timestamp)
        if txs is None:
            txs = self.mempool.take(self.params.max_block_txs)
        # Each receipt comes back stamped with the block's height and time.
        execute, by_id = self.executor.execute, self.receipts
        receipts = []
        for tx in txs:
            receipt = by_id[tx.tx_id] = execute(tx, env)
            receipts.append(receipt)

        self._m_blocks.inc()
        self._m_block_txs.observe(len(txs))

        if self._replication_logs:
            self._capture_replication(height)

        self._commit(height)
        self._prune_expired_snapshots(head=height)

        # Header root: Burrow-flavoured chains publish the *previous*
        # block's post-state root (state_root_lag = 1).
        root_height = height - self.params.state_root_lag
        header_root = self._post_roots.get(root_height, self._post_roots[0])
        header = BlockHeader(
            chain_id=self.chain_id,
            height=height,
            parent_hash=self.head.hash(),
            state_root=header_root,
            txs_root=transactions_root(txs),
            timestamp=timestamp,
            proposer=proposer,
        )
        block = Block(header=header, transactions=txs)
        self.blocks.append(block)

        for receipt in receipts:
            for callback in self._waiters.pop(receipt.tx_id, ()):
                callback(receipt)
        for listener in list(self._listeners):
            listener(block, receipts)
        return block

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def view(self, target: Address, method: str, *args: Any) -> Any:
        """Read-only contract query at the current head (the contract
        sees the head's height and timestamp)."""
        env = BlockEnv(
            chain_id=self.chain_id,
            height=self.height,
            timestamp=self.head.header.timestamp,
        )
        return self.runtime.view(target, method, args, env=env)

    def location_of(self, address: Address) -> Optional[int]:
        """The contract's ``L_c`` as recorded here, or None."""
        record = self.state.contract(address)
        return record.location if record is not None else None

    def balance_of(self, address: Address) -> int:
        """Native balance at the current head."""
        return self.state.balance_of(address)

    # ------------------------------------------------------------------
    # Move protocol support
    # ------------------------------------------------------------------

    def proof_header_height(self, inclusion_height: int) -> int:
        """Own-chain header height whose root commits the post-state of
        ``inclusion_height`` (applies the Burrow lag)."""
        return inclusion_height + self.params.state_root_lag

    def proof_ready_height(self, inclusion_height: int) -> int:
        """Own-chain head height at which a Move1 included at
        ``inclusion_height`` becomes provable to peers (header published
        and ``p``-confirmed)."""
        return self.proof_header_height(inclusion_height) + self.params.confirmation_depth

    def prove_contract_at(self, address: Address, state_height: int) -> ContractStateProof:
        """Build a Move2 proof bundle against the post-state of block
        ``state_height`` (normally the Move1 inclusion height).

        The contract must be locked (moved away) so its live record
        still equals the historical one (:meth:`_unchanged_claim`).
        """
        record, account_proof, code = self._unchanged_claim(address, state_height)
        return ContractStateProof(
            source_chain=self.chain_id,
            contract=address,
            code=code,
            storage=dict(record.storage),
            account_proof=account_proof,
            proof_height=self.proof_header_height(state_height),
        )

    def prove_storage_entry(self, container: Address, key: bytes, state_height: int):
        """Build a :class:`~repro.core.proofs.RemoteStateProof` that
        ``container``'s storage maps ``key`` at block ``state_height``.

        This is the generic attestation primitive of Section V-A: any
        contract on any peer chain can verify the entry against this
        chain's p-confirmed headers (via the light-client builtin).
        An unlocked container is proven at the head (``state_height ==
        height``) and the proof handed over once ``p`` more blocks
        confirm it; an older height is served only for a container
        whose account proof was captured there (see the module doc).
        Like :meth:`prove_contract_at`, it requires the container's
        live record to still encode the leaf proven at that height, so
        the entry, proven against the live trie, is under that leaf's
        storage root.
        """
        _record, account_proof, _code = self._unchanged_claim(container, state_height)
        try:
            storage_proof = self.state.prove_storage(container, key)
        except KeyError:
            raise ProofError(f"container has no storage entry {key.hex()[:16]}…") from None
        return RemoteStateProof(
            chain_id=self.chain_id,
            height=self.proof_header_height(state_height),
            container=container,
            account_proof=account_proof,
            storage_proof=storage_proof,
        )

    def gc_stale(self, min_age_blocks: int = 0):
        """Collect storage of moved-away contracts (paper §III-G c).

        Runs between blocks; the reclaimed leaves re-commit on the next
        block.  Replay protection survives: tombstones keep each
        contract's move nonce and forwarding location.  Returns the
        :class:`~repro.core.gc.GCReport`.
        """
        from repro.core.gc import collect_stale_contracts

        return collect_stale_contracts(
            self.state, current_height=self.height, min_age_blocks=min_age_blocks
        )

    # ------------------------------------------------------------------
    # Replication support (repro.replicate)
    # ------------------------------------------------------------------

    def enable_replication(self, address: Address):
        """Start capturing per-block storage deltas for ``address`` so
        replica updates can be served without the historical-root
        restriction of :meth:`prove_contract_at` (which fails for hot
        contracts).  Idempotent; returns the contract's
        :class:`~repro.replicate.log.ReplicationLog`.  The contract's
        account proof is captured at the current head, the log's first
        servable height, and at every block from here on."""
        from repro.replicate.log import ReplicationLog

        log = self._replication_logs.get(address)
        if log is None:
            record = self.state.require_contract(address)
            log = ReplicationLog(self.height, dict(record.storage))
            self._replication_logs[address] = log
            try:
                proof = self.state.prove_account(address)
            except KeyError:
                pass  # not committed yet: nothing to prove at this height
            else:
                self._proofs.setdefault(self.height, {})[address] = proof
        return log

    def replication_log(self, address: Address):
        """The contract's replication log, or None when not replicated."""
        return self._replication_logs.get(address)

    def _capture_replication(self, height: int) -> None:
        """Record this block's storage changes for every replicated
        contract — called just before ``state.commit()`` folds the
        dirty sets away."""
        horizon = (
            height - self.params.snapshot_retention
            if self.params.snapshot_retention > 0
            else None
        )
        for address, log in self._replication_logs.items():
            record = self.state.contract(address)
            if record is None:
                continue
            changes = self.state.pending_storage_changes(address)
            if changes is None:
                # Wholesale replacement (Move2 load / GC wipe): rebase
                # the log on the full post-block image.
                log.rebase(height, dict(record.storage))
            else:
                log.append(height, changes)
            if horizon is not None:
                log.trim(horizon)

    def build_replica_update(
        self, address: Address, since: Optional[int] = None, upto: Optional[int] = None
    ):
        """Build a verifiable :class:`~repro.replicate.protocol.ReplicaUpdate`
        bringing a mirror from the post-state of block ``since`` to the
        post-state of block ``upto`` (default: the newest height whose
        root a header already publishes).

        ``since=None`` — or a ``since`` older than the log's retained
        window — yields a full-image update; otherwise the update
        carries only the slots written in ``(since, upto]``.  The
        account proof is the one captured when ``upto`` committed (a
        replicated contract is proven at every block from
        :meth:`enable_replication` on), exactly like a Move2 proof.  The
        slots come from the log, so the live record is not checked.
        """
        from repro.replicate.protocol import ReplicaUpdate

        log = self._replication_logs.get(address)
        if log is None:
            raise ProofError(f"replication not enabled for {address}")
        if upto is None:
            upto = self.height - self.params.state_root_lag
        _record, account_proof, code = self._contract_claim(address, upto)
        delta = None
        if since is not None:
            delta = log.delta_between(since, upto)
        image = None if delta is not None else log.image_at(upto)
        return ReplicaUpdate(
            source_chain=self.chain_id,
            contract=address,
            state_height=upto,
            proof_height=self.proof_header_height(upto),
            since_height=since if delta is not None else None,
            delta=delta,
            image=image,
            code=code,
            account_proof=account_proof,
        )

    def subscribe_headers(self, listener: Callable[[BlockHeader], None]) -> None:
        """Invoke ``listener(header)`` after each peer header lands in
        this chain's light client (the store is updated first, so the
        listener can immediately query confirmation state)."""
        self._header_listeners.append(listener)

    def unsubscribe_headers(self, listener: Callable[[BlockHeader], None]) -> None:
        """Detach a header listener (no-op if absent)."""
        try:
            self._header_listeners.remove(listener)
        except ValueError:
            pass

    def _prune_expired_snapshots(self, head: int) -> None:
        """Bound what the chain keeps of past blocks to the configured
        horizon.

        Runs after every block: the post-state roots and captured
        account proofs of heights more than ``params.snapshot_retention``
        blocks behind ``head`` are dropped, so neither grows without
        bound on a long-running chain.  Height 0's root stays as the
        header-root fallback for the first lagged blocks.  The horizon
        is sized to outlive every peer's light-client confirmation
        window and the GC age gate (see
        :class:`~repro.chain.params.ChainParams`), so no still-provable
        Move1 loses its proof.
        """
        retention = self.params.snapshot_retention
        if retention <= 0:
            return
        while self._snapshot_floor < head - retention:
            self._post_roots.pop(self._snapshot_floor, None)
            self._proofs.pop(self._snapshot_floor, None)
            self._snapshot_floor += 1

    def verify_chain(self) -> bool:
        """Structural self-audit of the ledger.

        Checks what a syncing full node would: every header links to
        its parent by hash, heights are contiguous, and every header's
        ``txs_root`` recommits to the block body.  (State roots require
        re-execution to check and are covered by the replica-determinism
        tests instead.)  Raises :class:`StateError` on the first
        violation; returns True otherwise.
        """
        for previous, block in zip(self.blocks, self.blocks[1:]):
            if block.header.parent_hash != previous.hash():
                raise StateError(f"broken parent link at height {block.height}")
            if block.height != previous.height + 1:
                raise StateError(f"non-contiguous height at {block.height}")
            if block.header.txs_root != transactions_root(block.transactions):
                raise StateError(f"txs_root mismatch at height {block.height}")
        return True

    def observe_chain(self, params: ChainParams) -> None:
        """Start maintaining a light client of a peer chain."""
        if params.chain_id not in self.registry:
            self.registry.register(params)
        self.light_client.observe(params.chain_id, params.confirmation_depth)

    def ingest_header(self, header: BlockHeader) -> None:
        """Feed a peer-chain header to this chain's light client."""
        self.light_client.add_header(header)
        self._m_headers_in.inc()
        tracer = self.telemetry.tracer
        if tracer.enabled and tracer.has_watches():
            tracer.header_accepted(self.chain_id, header.chain_id, header.height)
        for listener in list(self._header_listeners):
            listener(header)


def client_submit(
    sim: "Simulator",
    chain: Chain,
    tx: Transaction,
    on_receipt: Callable[[Receipt], None],
    latency: float,
) -> None:
    """Submit ``tx`` from a client ``latency`` simulated seconds away
    from ``chain``; ``on_receipt(receipt)`` fires once it executes.
    Every load driver reaches a chain this way."""
    chain.wait_for(tx.tx_id, on_receipt)
    sim.schedule(latency, chain.submit, tx)

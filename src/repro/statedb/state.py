"""Journaled, Merkle-committed world state.

Two record kinds exist (paper Section II): *accounts*, which hold
balance and a transaction nonce, and *contracts*, which additionally
hold code, storage, the Move protocol's location field ``L_c`` and the
monotonically increasing **move nonce** used against replay (Fig. 2).

Commitment layout
-----------------
Each contract's storage is committed to its own ``storage_root``.  The
*canonical* definition of that root — what any Move2 verifier rebuilds
from the raw storage contents carried by a proof bundle — is a fresh
tree of the chain's flavour with the keys inserted in sorted order
(:func:`compute_storage_root`).

The committing chain, however, does **not** rebuild from scratch every
block.  It keeps one *live* persistent storage trie per contract
(:class:`~repro.merkle.protocol.AuthenticatedTree`) and, at commit,
folds only the block's dirty slots into it, so commit cost is
O(dirty · log S) per touched contract instead of O(S).  The incremental
root is guaranteed bit-identical to the canonical rebuild:

* **history-independent** flavours (the Patricia trie) commit to
  content, not history — folding changed slots in any order lands on
  exactly the canonical root;
* **history-dependent** flavours (the IAVL tree, whose AVL rotations
  make the shape order-sensitive) fold *value overwrites* in place
  (overwriting a leaf never rotates, so the canonical sorted-insertion
  shape is preserved) and canonically refold the contract's trie only
  when a write in the block added or removed a key —
  :meth:`WorldState.storage_set` marks the contract as it writes, so
  commit never probes the trie to find out.  A refold is one
  :meth:`~repro.merkle.iavl.IAVLTree.from_sorted` build: the sorted-
  insertion shape made directly, with no rotations.  Bulk transitions —
  Move2 recreation (:meth:`WorldState.load_storage`), mirror sync
  (:meth:`WorldState.apply_mirror`) and garbage collection
  (:meth:`WorldState.wipe_storage`) — replace the trie with one built
  canonically in a single pass (for the first two, the very tree their
  proof check built, rebuilt once if its flavour is not this chain's).

The equivalence is enforced by the property tests in
``tests/property/test_storage_commitment_properties.py``.

The account tree maps ``address -> leaf`` where the leaf serializes
balance, nonce, code hash, ``L_c``, move nonce and storage root; its
root is the block header's ``state_root`` ``m``, and ``prove_account``
produces the ``{v} ↦ m`` account proof embedded in Move2 transactions.
Every tree here is the one live copy and is written in place; nothing
keeps an old version.  A proof against an older root must be taken
when that root is committed: :meth:`WorldState.commit` reports the
contract leaves it wrote while locked (``locked_leaves``), and the
chain proves those before the next block moves the tree on.

Single mutability (I1) and journaling
-------------------------------------
Every transactional write to a contract record whose ``L_c`` names
another chain is refused (:meth:`WorldState.refuse_write`); ``L_c`` and
the move nonce have two writers, :meth:`WorldState.lock` and
:meth:`WorldState.reactivate`.  Every mutation appends an undo closure.
The maintenance that runs between blocks is exempt from both: genesis
funding (:meth:`WorldState.fund`), GC (:meth:`WorldState.wipe_storage`)
and replication (:meth:`WorldState.apply_mirror`,
:meth:`WorldState.drop_mirror`).  ``snapshot()`` / ``revert()`` give
transaction-level atomicity: a failed transaction (revert, out of
gas, locked contract) unwinds to the pre-transaction state exactly.
The transaction is the outermost journal scope: when it ends, however
it ended, the executor calls ``drop_journal()``, so a transaction's
undo closures die with it instead of living until the block commits
(no snapshot spans two transactions; nested ``snapshot()`` /
``revert()`` inside one keep their LIFO semantics).
Dirty-slot sets are deliberately *not* unwound: they over-approximate,
and folding an unchanged slot at commit just rewrites an identical
leaf.  Where a live trie is replaced wholesale inside a transaction
(:meth:`WorldState.load_storage`), the undo closure puts the prior
trie back — O(1): the replacement was built beside it, not into it.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Mapping, NamedTuple, NoReturn, Optional, Set, Tuple

from repro.crypto.keys import Address
from repro.errors import ContractLocked, ProofError, ReadOnlyReplicaError, Revert, StateError
from repro.merkle.proof import MembershipProof
from repro.merkle.protocol import AuthenticatedTree, TreeFactory


@dataclass
class AccountRecord:
    """Externally-owned account."""

    balance: int = 0
    nonce: int = 0


@dataclass
class ContractRecord:
    """Smart-contract account.

    ``location`` is the paper's ``L_c``: the chain id where the contract
    currently lives.  While ``location`` differs from the hosting
    chain's id the contract is *locked* there — reads succeed, and
    :class:`WorldState` refuses every transactional write to the record.
    """

    code_hash: bytes
    location: int
    balance: int = 0
    move_nonce: int = 0
    storage: Dict[bytes, bytes] = field(default_factory=dict)
    #: height at which L_c last changed (None = never moved); lets the
    #: garbage collector age-gate stale copies (paper §III-G c)
    moved_at_height: Optional[int] = None


def encode_account_leaf(record: AccountRecord) -> bytes:
    """Canonical account-leaf bytes (committed in the state tree)."""
    return b"A" + record.balance.to_bytes(32, "big") + record.nonce.to_bytes(8, "big")


class ContractLeaf(NamedTuple):
    """The committed fields of a contract leaf, as a verifier reads them."""

    balance: int
    location: int
    move_nonce: int
    code_hash: bytes
    storage_root: bytes


def encode_contract_leaf(record: ContractRecord, storage_root: bytes) -> bytes:
    """Canonical contract-leaf bytes: ``C``, balance (32 bytes), ``L_c``
    (8), move nonce (8), code hash (32), storage root (32) — everything
    Move2 must verify, the currency the contract carries included.
    """
    return (
        b"C"
        + record.balance.to_bytes(32, "big")
        + record.location.to_bytes(8, "big")
        + record.move_nonce.to_bytes(8, "big")
        + record.code_hash
        + storage_root
    )


def decode_contract_leaf(leaf: bytes) -> ContractLeaf:
    """The inverse of :func:`encode_contract_leaf`; raises
    :class:`~repro.errors.ProofError` for anything but a 113-byte leaf
    tagged ``C`` (an account leaf, a truncated or padded blob)."""
    if type(leaf) is not bytes or len(leaf) != 113 or leaf[:1] != b"C":
        raise ProofError("proven leaf is not a contract leaf")
    return ContractLeaf(
        int.from_bytes(leaf[1:33], "big"), int.from_bytes(leaf[33:41], "big"),
        int.from_bytes(leaf[41:49], "big"), leaf[49:81], leaf[81:113],
    )


def _refuse_balance_args(address: object, amount: object) -> None:
    if type(address) is not Address:
        raise StateError(f"balance holder must be an Address, got {type(address).__name__}")
    raise StateError(f"balance amount must be an int, got {type(amount).__name__}")


class WorldState:
    """Mutable world state for one chain, journaled and committable.

    ``tree_factory`` supplies the chain's authenticated structure
    (:class:`~repro.merkle.iavl.IAVLTree` for Burrow-flavoured chains,
    :class:`~repro.merkle.trie.MerklePatriciaTrie` for
    Ethereum-flavoured ones).
    """

    def __init__(self, chain_id: int, tree_factory: TreeFactory):
        self.chain_id = chain_id
        self._tree_factory = tree_factory
        self.accounts: Dict[Address, AccountRecord] = {}
        self.contracts: Dict[Address, ContractRecord] = {}
        #: chain-local registry of contract code actually stored here
        self.code_store: Dict[bytes, bytes] = {}
        self._journal: List[Callable[[], None]] = []
        self._dirty: Set[Address] = set()
        #: per-contract set of slots written since the last commit; the
        #: incremental commit folds exactly these into the live trie
        self._dirty_slots: Dict[Address, Set[bytes]] = {}
        #: contracts whose storage gained or lost a key since the last
        #: commit — over-approximate (a revert does not unmark), which
        #: only costs a canonical rebuild that lands on the same root
        self._reshaped: Set[Address] = set()
        #: one live persistent storage trie per contract, kept root-
        #: identical to the canonical sorted rebuild at every commit
        self._storage_tries: Dict[Address, AuthenticatedTree] = {}
        self._account_tree: AuthenticatedTree = tree_factory()
        self._committed_root: bytes = self._account_tree.root_hash
        #: contracts whose leaf the last commit wrote while locked (``L_c``
        #: ≠ this chain), mirrors excluded — the keys a peer may later
        #: ask the chain to prove at that commit's height
        self.locked_leaves: List[Address] = []
        self._storage_roots: Dict[Address, bytes] = {}
        #: addresses whose local record is a read-only replica of a
        #: contract living on another chain (repro.replicate); a mirror
        #: is *never* the active copy, so writes against one are typed
        #: protocol violations and GC must not sweep its storage
        self._mirrors: Set[Address] = set()
        #: addresses whose storage was replaced wholesale since the last
        #: commit (Move2 load, GC wipe, mirror apply) — the replication
        #: log reads this to rebase its delta capture on a full image
        self._storage_replaced: Set[Address] = set()

    @property
    def tree_factory(self) -> TreeFactory:
        """The chain's tree flavour (public, for proof builders)."""
        return self._tree_factory

    # ------------------------------------------------------------------
    # Journal
    # ------------------------------------------------------------------

    def snapshot(self) -> int:
        """Mark the current journal position (valid until the next
        :meth:`drop_journal` or :meth:`commit`)."""
        return len(self._journal)

    def revert(self, snap: int) -> None:
        """Undo every mutation after ``snap`` (most recent first)."""
        while len(self._journal) > snap:
            self._journal.pop()()

    def drop_journal(self) -> None:
        """Keep every journaled mutation and forget how to undo it.

        Closes the outermost scope: the executor calls this when a
        transaction ends, so no earlier snapshot can be reverted
        afterwards — the state the transaction left is final until
        the block commits.
        """
        self._journal.clear()

    def _record(self, undo: Callable[[], None]) -> None:
        self._journal.append(undo)

    # ------------------------------------------------------------------
    # Accounts
    # ------------------------------------------------------------------

    def account(self, address: Address) -> AccountRecord:
        """Fetch-or-create an externally-owned account record."""
        record = self.accounts.get(address)
        if record is None:
            record = AccountRecord()
            self.accounts[address] = record
            self._record(lambda: self.accounts.pop(address, None))
        return record

    def balance_of(self, address: Address) -> int:
        """Native balance of an account or contract (0 if unknown)."""
        if address in self.contracts:
            return self.contracts[address].balance
        record = self.accounts.get(address)
        return record.balance if record is not None else 0

    def _check_credit(self, address: Address, amount: int) -> None:
        """Refuse (:class:`StateError`) a credit the commit cannot
        encode: anything but an :class:`Address` and a non-negative
        ``int``, or a balance past the leaf's 32 bytes."""
        if type(address) is not Address or type(amount) is not int:
            _refuse_balance_args(address, amount)
        if amount < 0:
            raise StateError("use sub_balance for debits")
        if self.balance_of(address) + amount >= 1 << 256:
            raise StateError(f"balance at {address} would not fit 32 bytes")

    def add_balance(self, address: Address, amount: int) -> None:
        """Credit an account or contract (journaled); refuses what
        :meth:`_check_credit` refuses."""
        self._check_credit(address, amount)
        record = self._holder(address)
        record.balance += amount
        self._record(lambda: setattr(record, "balance", record.balance - amount))

    def fund(self, allocations: Mapping[Address, int]) -> None:
        """Credit every ``holder: amount`` in ``allocations`` outside any
        transaction (genesis funding).

        Not journaled and not lock-guarded: like :meth:`wipe_storage` it
        runs between blocks, and the next :meth:`commit` makes it final.
        Atomic: every allocation is checked for what :meth:`add_balance`
        refuses first, so a :class:`StateError` leaves nothing credited
        and nothing marked dirty.
        """
        for address, amount in allocations.items():
            self._check_credit(address, amount)
        contracts, accounts = self.contracts, self.accounts
        for address, amount in allocations.items():
            record = contracts.get(address)
            if record is None:
                record = accounts.get(address)
                if record is None:
                    record = accounts[address] = AccountRecord()
            record.balance += amount
        self._dirty.update(allocations)

    def sub_balance(self, address: Address, amount: int) -> None:
        """Debit; raises :class:`StateError` on insufficient funds, and
        on the arguments :meth:`add_balance` refuses."""
        if type(address) is not Address or type(amount) is not int:
            _refuse_balance_args(address, amount)
        if amount < 0:
            raise StateError("use add_balance for credits")
        if self.balance_of(address) < amount:
            raise StateError(f"insufficient balance at {address}")
        record = self._holder(address)
        record.balance -= amount
        self._record(lambda: setattr(record, "balance", record.balance + amount))

    def _holder(self, address: Address):
        """The record whose balance ``address`` names — its contract's,
        refused unless active here, else its account's (created,
        journaled, if new) — marked dirty."""
        record = self.contracts.get(address)
        if record is None:
            record = self.accounts.get(address)
            if record is None:
                record = self.account(address)
        elif record.location != self.chain_id:
            self.refuse_write(address, record)
        self._dirty.add(address)
        return record

    def bump_nonce(self, address: Address) -> int:
        """Increment and return an EOA's transaction nonce."""
        account = self.account(address)
        account.nonce += 1
        self._dirty.add(address)
        self._record(lambda: setattr(account, "nonce", account.nonce - 1))
        return account.nonce

    # ------------------------------------------------------------------
    # Contracts
    # ------------------------------------------------------------------

    def contract(self, address: Address) -> Optional[ContractRecord]:
        """The contract record at ``address``, or None."""
        return self.contracts.get(address)

    def require_contract(self, address: Address) -> ContractRecord:
        """The contract record, or :class:`StateError` if absent."""
        record = self.contract(address)
        if record is None:
            raise StateError(f"no contract at {address}")
        return record

    def create_contract(
        self,
        address: Address,
        code_hash: bytes,
        code: bytes,
        location: Optional[int] = None,
        move_nonce: int = 0,
        balance: int = 0,
    ) -> ContractRecord:
        """Instantiate a contract record (journaled).

        ``location`` defaults to this chain — a freshly created contract
        lives where it was created.  Move2 recreation passes the proven
        ``move_nonce`` and balance through.
        """
        if address in self.contracts:
            raise StateError(f"contract already exists at {address}")
        record = ContractRecord(
            code_hash=code_hash,
            location=location if location is not None else self.chain_id,
            move_nonce=move_nonce,
            balance=balance,
        )
        self.contracts[address] = record
        self._storage_tries[address] = self._tree_factory()
        self._dirty.add(address)

        # Undo removes the record but leaves the dirty flag: earlier
        # journaled mutations (e.g. a balance credit) may also have
        # dirtied this address, and an over-approximate dirty set is
        # harmless (commit just re-writes an identical leaf).
        def undo_create() -> None:
            self.contracts.pop(address, None)
            self._storage_tries.pop(address, None)

        self._record(undo_create)
        if code_hash not in self.code_store:
            self.code_store[code_hash] = code
            self._record(lambda: self.code_store.pop(code_hash, None))
        return record

    def has_code(self, code_hash: bytes) -> bool:
        """Is this code blob already stored on-chain?  (Section VIII:
        recreation can skip the deposit when the code is present.)"""
        return code_hash in self.code_store

    def storage_get(self, address: Address, key: bytes) -> bytes:
        """Read a storage slot (empty bytes when unset)."""
        record = self.require_contract(address)
        return record.storage.get(key, b"")

    def storage_set(self, address: Address, key: bytes, value: bytes) -> None:
        """Write a storage slot (journaled); empty value deletes."""
        record = self.require_contract(address)
        if record.location != self.chain_id:
            self.refuse_write(address, record)
        storage = record.storage
        old = storage.get(key)
        if value:
            storage[key] = value
            if old is None:
                self._reshaped.add(address)
        elif old is not None:
            del storage[key]
            self._reshaped.add(address)
        self._dirty.add(address)
        self._dirty_slots.setdefault(address, set()).add(key)

        def undo() -> None:
            if old is None:
                storage.pop(key, None)
            else:
                storage[key] = old

        self._record(undo)

    def load_storage(self, address: Address, tree: AuthenticatedTree) -> None:
        """Replace a contract's storage wholesale (journaled).

        ``tree`` is a canonical storage tree built elsewhere — Move2
        recreation hands over the one its proof check built — and is
        installed by :meth:`_install_storage`.  Callers holding a
        mapping pass ``build_storage_trie(state.tree_factory, entries)``.
        The undo closure restores the prior dict contents *and* the
        prior trie (O(1) — the new trie was built beside it, never into
        it).
        """
        record = self.require_contract(address)
        if record.location != self.chain_id:
            self.refuse_write(address, record)
        prior_storage = dict(record.storage)
        prior_tree = self._storage_tries.get(address)
        prior_dirty = self._dirty_slots.get(address)
        # Over-approximate on revert: the replacement mark stays, and a
        # spurious one just makes the replication log rebase on a full
        # (correct) image.
        self._install_storage(address, record, tree)

        def undo() -> None:
            record.storage.clear()
            record.storage.update(prior_storage)
            if prior_tree is None:
                self._storage_tries.pop(address, None)
            else:
                self._storage_tries[address] = prior_tree
            if prior_dirty is None:
                self._dirty_slots.pop(address, None)
            else:
                self._dirty_slots[address] = prior_dirty

        self._record(undo)

    def _install_storage(
        self, address: Address, record: ContractRecord, tree: AuthenticatedTree
    ) -> None:
        """Make ``tree``, a canonical storage tree a proof check built,
        the contract's live trie and refill the storage dict from it
        (Move2's :meth:`load_storage`, mirror sync's :meth:`apply_mirror`).
        The check builds in the *source* chain's flavour: a tree of the
        other flavour is rebuilt in this one's first, once."""
        if type(tree) is not self._tree_factory:
            tree = build_storage_trie(self._tree_factory, dict(tree.items()))
        record.storage.clear()
        record.storage.update(tree.items())
        self._storage_tries[address] = tree
        # The fresh trie matches the dict exactly — no slots left to fold.
        self._dirty_slots[address] = set()
        self._dirty.add(address)
        self._storage_replaced.add(address)

    def wipe_storage(self, address: Address) -> None:
        """Clear a contract's storage outside any transaction (GC).

        Not journaled and not lock-guarded (it sweeps relics): garbage
        collection runs between blocks, exactly like a state-pruning
        pass would.  The live trie is reset to an
        empty one (canonical for the empty key set) and the address is
        marked for re-commitment.
        """
        record = self.require_contract(address)
        record.storage.clear()
        self._storage_tries[address] = self._tree_factory()
        self._dirty_slots.pop(address, None)
        self._dirty.add(address)
        self._storage_replaced.add(address)

    def lock(self, address: Address, target_chain: int, height: int) -> None:
        """Move1 and ``OP_MOVE`` as one journal entry: ``L_c :=
        target_chain``, ``moved_at_height := height`` (GC age gating)
        and the move-nonce bump that makes the locked leaf unique.
        Refuses (:class:`Revert`) this chain and any target the 8-byte
        leaf field cannot hold."""
        record = self.require_contract(address)
        if record.location != self.chain_id:
            self.refuse_write(address, record)
        if type(target_chain) is not int or not 0 <= target_chain < 1 << 64:
            raise Revert(f"OP_MOVE target {target_chain!r} is not a chain id")
        if target_chain == self.chain_id:
            raise Revert("OP_MOVE target is the current chain")
        old = (record.location, record.moved_at_height, record.move_nonce)
        record.location = target_chain
        record.moved_at_height = height
        record.move_nonce += 1
        self._dirty.add(address)

        def undo() -> None:
            record.location, record.moved_at_height, record.move_nonce = old

        self._record(undo)

    def reactivate(self, address: Address, move_nonce: int, balance: int) -> ContractRecord:
        """A Move2 onto a chain that holds a relic or mirror of the
        contract, as one journal entry: the record becomes the active
        copy, with the proven move nonce and balance (the caller loads
        the proven storage next)."""
        record = self.require_contract(address)
        old = (record.location, record.moved_at_height, record.move_nonce, record.balance)
        was_mirror = address in self._mirrors
        record.location = self.chain_id
        record.moved_at_height = None
        record.move_nonce = move_nonce
        record.balance = balance
        self._mirrors.discard(address)
        self._dirty.add(address)

        def undo() -> None:
            (record.location, record.moved_at_height,
             record.move_nonce, record.balance) = old
            if was_mirror:
                self._mirrors.add(address)

        self._record(undo)
        return record

    def refuse_write(self, address: Address, record: ContractRecord) -> NoReturn:
        """Refuse a write to ``record``, whose ``L_c`` names another
        chain: :class:`~repro.errors.ReadOnlyReplicaError` for a mirror,
        :class:`~repro.errors.ContractLocked` for a relic.  ``Runtime``
        and the executor call it too, before a relic can run code."""
        if address in self._mirrors:
            raise ReadOnlyReplicaError(
                f"contract {address} is a read-only replica of chain {record.location}"
            )
        raise ContractLocked(f"contract {address} moved to chain {record.location}")

    def is_locked(self, address: Address) -> bool:
        """True when the contract was moved away (``L_c`` ≠ this chain)."""
        record = self.require_contract(address)
        return record.location != self.chain_id

    # ------------------------------------------------------------------
    # Read-only replicas (repro.replicate)
    # ------------------------------------------------------------------

    def is_mirror(self, address: Address) -> bool:
        """True when the local record is a read-only replica.

        Mirrors carry ``location`` = the source chain's id (so every
        lock check already treats them as non-active) plus this flag,
        which distinguishes them from moved-away relics: a relic's
        storage is garbage, a mirror's storage is live replicated state
        that GC must preserve and writes must reject with
        :class:`~repro.errors.ReadOnlyReplicaError`.
        """
        return address in self._mirrors

    def apply_mirror(
        self, address: Address, leaf: ContractLeaf, code: bytes, tree: AuthenticatedTree
    ) -> ContractRecord:
        """Create or refresh a read-only replica (not journaled, not
        lock-guarded: a mirror is never the active copy).

        Called by the replication relay between blocks — exactly like
        GC — with what its verifier returned: the proven contract
        ``leaf`` (code hash, balance and ``L_c``, the source chain's id,
        so the record is locked by construction), the ``code`` checked
        against it, and the storage ``tree`` the verifier built, which
        :meth:`_install_storage` makes the live trie.  The local
        ``move_nonce`` is never lowered: a relic upgraded to a mirror
        keeps its nonce so I2 monotonicity holds and a later legitimate
        Move2 onto this chain still passes the replay guard (mirrors
        never claim the source's nonce for the same reason).
        """
        record = self.contracts.get(address)
        if record is None:
            record = self.contracts[address] = ContractRecord(leaf.code_hash, leaf.location)
        elif address not in self._mirrors and record.location == self.chain_id:
            raise StateError(f"cannot mirror over the active contract at {address}")
        record.code_hash, record.location = leaf.code_hash, leaf.location
        record.balance = leaf.balance
        if leaf.code_hash not in self.code_store:
            self.code_store[leaf.code_hash] = code
        self._install_storage(address, record, tree)
        self._mirrors.add(address)
        return record

    def drop_mirror(self, address: Address) -> None:
        """Demote a replica back to an ordinary stale record (not
        journaled, not lock-guarded).  Its storage is wiped immediately — a tombstoned
        mirror must be *unavailable*, never silently stale — and the
        record becomes an ordinary relic the garbage collector may age
        out."""
        if address not in self._mirrors:
            return
        self._mirrors.discard(address)
        self.wipe_storage(address)

    def pending_storage_changes(
        self, address: Address
    ) -> Optional[Dict[bytes, bytes]]:
        """Slot writes since the last commit (``b""`` marks a delete),
        or ``None`` when the storage was replaced wholesale this block
        (Move2 load, GC wipe) and the caller must rebase on the full
        image.  The replication log calls this just before commit to
        capture the block's delta."""
        if address in self._storage_replaced:
            return None
        record = self.contracts.get(address)
        if record is None:
            return None
        dirty = self._dirty_slots.get(address)
        if not dirty:
            return {}
        return {key: record.storage.get(key, b"") for key in sorted(dirty)}

    # ------------------------------------------------------------------
    # Commitment
    # ------------------------------------------------------------------

    def storage_root(self, address: Address) -> bytes:
        """Canonical storage root: fresh tree, keys in sorted order."""
        record = self.require_contract(address)
        return compute_storage_root(self._tree_factory, record.storage)

    def _live_storage_trie(self, address: Address) -> AuthenticatedTree:
        """Fetch-or-build the contract's live storage trie."""
        tree = self._storage_tries.get(address)
        if tree is None:
            record = self.require_contract(address)
            tree = build_storage_trie(self._tree_factory, record.storage)
            self._storage_tries[address] = tree
        return tree

    def _commit_storage(self, address: Address, record: ContractRecord) -> bytes:
        """Fold the block's dirty slots into the live trie; return the
        root — bit-identical to the canonical sorted rebuild."""
        tree = self._storage_tries.get(address)
        if tree is None:
            tree = build_storage_trie(self._tree_factory, record.storage)
            self._storage_tries[address] = tree
            return tree.root_hash
        dirty = self._dirty_slots.get(address)
        if not dirty:
            return tree.root_hash
        if not tree.history_independent and address in self._reshaped:
            # The key set (may have) changed: overwrite-folding cannot
            # reproduce the canonical (sorted-insertion) shape of a
            # history-dependent tree, so refold this contract from scratch.
            tree = build_storage_trie(self._tree_factory, record.storage)
            self._storage_tries[address] = tree
            return tree.root_hash
        # Pure incremental path: either the tree commits to content
        # alone, or every dirty slot is a value overwrite (which never
        # rotates, preserving the canonical shape).
        for key in sorted(dirty):
            value = record.storage.get(key)
            if value is None:
                tree.delete(key)
            else:
                tree.set(key, value)
        return tree.root_hash

    def commit(self) -> bytes:
        """Fold dirty entries into the account tree; return the root.

        Per dirty contract, only the slots written since the last
        commit are folded into its live storage trie (O(dirty · log S)
        instead of the O(S) rebuild).  The dirty leaves come out in
        ascending address order, so an empty account tree (genesis) is
        built from them in one
        :meth:`~repro.merkle.protocol.AuthenticatedTree.from_sorted`
        pass; a non-empty one takes one ``set`` per leaf.  Both land on
        the same tree and root.  Whatever the journal still holds is
        dropped: nothing committed can be reverted.
        """
        locked: List[Address] = []
        leaves: List[Tuple[bytes, bytes]] = []
        # Address orders by its one field, so this is sorted(self._dirty)
        # with the comparisons made on bytes, in C.
        for address in sorted(self._dirty, key=attrgetter("raw")):
            record = self.contracts.get(address)
            if record is not None:
                root = self._commit_storage(address, record)
                self._storage_roots[address] = root
                leaf = encode_contract_leaf(record, root)
                if record.location != self.chain_id and address not in self._mirrors:
                    locked.append(address)
            else:
                account = self.accounts.get(address)
                if account is None:
                    continue  # account created and reverted within the block
                leaf = encode_account_leaf(account)
            leaves.append((address.raw, leaf))
        tree = self._account_tree
        if next(tree.items(), None) is None:
            # A genesis build allocates about two nodes per leaf, none of
            # which can join a cycle: the collector's full passes would
            # only re-walk the growing heap (a third to a half of the
            # build at 2·10^4–10^5 accounts), so it sits this one out.
            # One young-generation pass then ages the new nodes here,
            # not in the first blocks' passes.
            collecting = gc.isenabled()
            gc.disable()
            try:
                tree = self._account_tree = self._tree_factory.from_sorted(leaves)
            finally:
                if collecting:
                    gc.enable()
                    gc.collect(1)
        else:
            for key, leaf in leaves:
                tree.set(key, leaf)
        self._dirty.clear()
        self._dirty_slots.clear()
        self._reshaped.clear()
        self._storage_replaced.clear()
        self._journal.clear()
        self.locked_leaves = locked
        self._committed_root = tree.root_hash
        return self._committed_root

    @property
    def committed_root(self) -> bytes:
        """Root as of the last :meth:`commit`."""
        return self._committed_root

    def prove_account(self, address: Address) -> MembershipProof:
        """``{leaf} ↦ state_root`` proof against the last committed tree.

        Raises :class:`KeyError` if the address was never committed.
        """
        return self._account_tree.prove(address.raw)

    def prove_storage(self, address: Address, key: bytes) -> MembershipProof:
        """``{slot} ↦ storage_root`` proof against the contract's
        committed storage trie.

        Raises :class:`KeyError` if the slot is not committed.
        """
        return self._live_storage_trie(address).prove(key)

    def committed_storage_root(self, address: Address) -> bytes:
        """Storage root as of the last commit that touched the address."""
        root = self._storage_roots.get(address)
        if root is None:
            raise StateError(f"no committed storage root for {address}")
        return root


def build_storage_trie(
    tree_factory: TreeFactory, storage: Mapping[bytes, bytes]
) -> AuthenticatedTree:
    """Build a contract storage trie canonically (sorted insertion)."""
    return tree_factory.from_sorted(sorted(storage.items()))


def compute_storage_root(
    tree_factory: TreeFactory, storage: Mapping[bytes, bytes]
) -> bytes:
    """Rebuild a contract storage root canonically (sorted insertion).

    This is the *reference* definition of the storage commitment: any
    Move2 verifier calls it on the raw storage contents carried by a
    proof bundle, so the root is reproducible with no write history.
    The committing chain's incremental path (:meth:`WorldState.commit`)
    is guaranteed to produce the identical root.
    """
    return build_storage_trie(tree_factory, storage).root_hash

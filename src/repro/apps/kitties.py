"""ScalableKitties: the CryptoKitties clone of Section V-B.

The original CryptoKitties is one monolithic contract owning every cat;
moving it would drag the entire cattery along.  ScalableKitties applies
the paper's programming model — *smart contracts as first-class movable
objects* — so **each cat is its own contract** and migrates alone.

Function mapping (only breeding can go cross-chain):

* promotional creation — ``KittyRegistry.create_promo_kitty`` (owner
  only), generation-0 cats;
* siring approval — ``Kitty.approve_siring`` (the sire owner permits a
  matron);
* breeding — ``Kitty.breed_with`` on the matron, requiring the sire on
  the *same* chain (if not, the client first moves one cat — the only
  source of cross-shard transactions in the Fig. 5 replay);
* birth — ``Kitty.give_birth`` creates the child contract;
* ownership transfer — ``Kitty.transfer_ownership`` (also how the sale
  auction of :mod:`repro.apps.auction` settles).

:func:`breed` is the client side of breeding, which every load driver
runs.
"""

from __future__ import annotations

from typing import Callable

from repro.apps.genes import mix_genes, promo_genes
from repro.chain.tx import CallPayload, sign_transaction
from repro.crypto.hashing import keccak
from repro.crypto.keys import Address, KeyPair
from repro.lang.movable import MovableContract
from repro.runtime.contract import Slot, external, require, view
from repro.runtime.registry import register_contract


def derive_kitty_id(matron_id: int, sire_id: int, height: int, chain_id: int) -> int:
    """Registry-free unique kitten id (64-bit, collision-negligible)."""
    digest = keccak(
        b"kitty-id",
        matron_id.to_bytes(32, "big"),
        sire_id.to_bytes(32, "big"),
        height.to_bytes(8, "big"),
        chain_id.to_bytes(8, "big"),
    )
    return int.from_bytes(digest[:8], "big")


@register_contract
class Kitty(MovableContract):
    """One cat: genes, lineage, pregnancy state — all movable."""

    #: seconds a matron must rest after giving birth (CryptoKitties'
    #: breeding cooldown; 0 by default so the paper's replay pacing is
    #: driven purely by the dependency DAG)
    BREED_COOLDOWN: float = 0.0

    kitty_id = Slot(int)
    genes = Slot(int)
    generation = Slot(int)
    matron_id = Slot(int)  # 0 for generation-0 cats
    sire_id = Slot(int)
    birth_time = Slot(int)
    registry = Slot(Address)
    # pregnancy
    pregnant_with_sire = Slot(int)  # sire kitty id, 0 = not pregnant
    sire_genes_snapshot = Slot(int)
    last_birth_at = Slot(int)
    # siring permission: matron owner allowed to use this cat as sire
    siring_approved_for = Slot(Address)

    def init(
        self,
        owner: Address,
        kitty_id: int,
        genes: int,
        generation: int,
        matron_id: int,
        sire_id: int,
        registry: Address,
    ) -> None:
        """Set the cat's genes, lineage and owner at birth."""
        self.owner = owner
        self.kitty_id = kitty_id
        self.genes = genes
        self.generation = generation
        self.matron_id = matron_id
        self.sire_id = sire_id
        self.registry = registry
        self.birth_time = int(self.now)

    # -- views -----------------------------------------------------------

    @view
    def get_genes(self) -> int:
        """The 256-bit genome."""
        return self.genes

    @view
    def get_owner(self) -> Address:
        """The controlling user."""
        return self.owner

    @view
    def lineage(self) -> tuple:
        """(id, matron id, sire id, generation)."""
        return (self.kitty_id, self.matron_id, self.sire_id, self.generation)

    @view
    def is_pregnant(self) -> bool:
        """Bred but not yet delivered?"""
        return self.pregnant_with_sire != 0

    @view
    def siring_info(self) -> tuple:
        """(kitty_id, genes, generation, matron_id, sire_id) — what a
        matron needs from a sire to breed."""
        return (self.kitty_id, self.genes, self.generation, self.matron_id, self.sire_id)

    # -- ownership ---------------------------------------------------------

    @external
    def transfer_ownership(self, new_owner: Address) -> None:
        """Hand the cat to a new owner (clears siring approval)."""
        require(self.msg.sender == self.owner, "only the owner transfers")
        self.owner = new_owner
        self.siring_approved_for = None
        self.emit("Transfer", kitty=self.kitty_id, to=new_owner.hex)

    # -- breeding ------------------------------------------------------------

    @external
    def approve_siring(self, matron_owner: Address) -> None:
        """The sire's owner permits ``matron_owner`` to breed with it."""
        require(self.msg.sender == self.owner, "only the owner approves siring")
        self.siring_approved_for = matron_owner

    @external
    def consume_siring(self, matron_owner: Address) -> tuple:
        """Called by a sibling matron during breeding: check permission,
        clear it, and hand back this sire's breeding info."""
        require(
            self.owner == matron_owner or self.siring_approved_for == matron_owner,
            "siring not approved",
        )
        if self.siring_approved_for == matron_owner:
            self.siring_approved_for = None
        return (self.kitty_id, self.genes, self.generation, self.matron_id, self.sire_id)

    @external
    def breed_with(self, sire: Address) -> None:
        """Mate this matron with a sire **on the same chain**.

        Aborts when the sire lives elsewhere (no record / locked) — the
        caller must move one of the cats first.  Sibling cats cannot
        mate (Section V-B's example rule).
        """
        require(self.msg.sender == self.owner, "only the matron's owner breeds")
        require(self.pregnant_with_sire == 0, "already pregnant")
        require(
            self.last_birth_at == 0
            or self.now - self.last_birth_at >= self.BREED_COOLDOWN,
            "breeding cooldown not elapsed",
        )
        sire_id, sire_genes, _sire_gen, sire_matron, sire_sire = self.call(
            sire, "consume_siring", self.owner
        )
        require(sire_id != self.kitty_id, "cannot breed with itself")
        if self.generation > 0 and _sire_gen > 0:
            same_parents = (
                self.matron_id == sire_matron and self.sire_id == sire_sire
            )
            require(not same_parents, "sibling cats cannot mate")
        self.pregnant_with_sire = sire_id
        self.sire_genes_snapshot = sire_genes
        self.emit("Pregnant", matron=self.kitty_id, sire=sire_id)

    @external
    def give_birth(self) -> Address:
        """Deliver the kitten: a brand-new movable contract.

        The child id is derived from the parents and block height
        rather than allocated by the registry — a moved cat must be
        able to give birth on a chain where the registry does not live.
        """
        require(self.pregnant_with_sire != 0, "not pregnant")
        sire_id = self.pregnant_with_sire
        child_genes = mix_genes(
            self.genes, self.sire_genes_snapshot, seed=self.env.height + self.kitty_id
        )
        self.pregnant_with_sire = 0
        self.sire_genes_snapshot = 0
        self.last_birth_at = int(self.now)
        child_id = derive_kitty_id(self.kitty_id, sire_id, self.env.height, self.chain_id)
        child = self.create(
            Kitty,
            self.owner,
            child_id,
            child_genes,
            self.generation + 1,
            self.kitty_id,
            sire_id,
            self.registry,
            salt=child_id,
        )
        self.emit("Birth", kitty=child_id, matron=self.kitty_id, sire=sire_id)
        return child


@register_contract
class KittyRegistry(MovableContract):
    """Global counters and promo-cat issuance (one per deployment).

    Unlike cats, the registry stays put; cats only need it for unique
    id allocation, which keeps cross-chain breeding independent of it
    when ids are pre-allocated (the trace replayer does exactly that).
    """

    kitties_created = Slot(int)
    promo_created = Slot(int)

    @external
    def next_kitty_id(self) -> int:
        """Allocate the next sequential id (registry-local)."""
        new_id = self.kitties_created + 1
        self.kitties_created = new_id
        return new_id

    @external
    def create_promo_kitty(self, to: Address) -> Address:
        """Generation-0 cat issued by the registry owner (Section V-B:
        "cats were first generated by the contract's owner").

        Ids are chain-qualified (Section III-G: identifiers must stay
        unique system-wide) so cats minted by different registries can
        meet and breed after moving.
        """
        require(self.msg.sender == self.owner, "only the registry owner")
        counter = self.kitties_created + 1
        self.kitties_created = counter
        self.promo_created += 1
        kitty_id = derive_kitty_id(0, counter, 0, self.chain_id)
        kitty = self.create(
            Kitty, to, kitty_id, promo_genes(kitty_id), 0, 0, 0, self.address,
            salt=kitty_id,
        )
        self.emit("PromoKitty", kitty=kitty_id, owner=to.hex)
        return kitty

    @view
    def total_kitties(self) -> int:
        """Cats this registry has counted."""
        return self.kitties_created


def breed(
    send: Callable,
    where: int,
    owner: KeyPair,
    matron: Address,
    sire: Address,
    on_born: Callable,
    on_barren: Callable,
) -> None:
    """ScalableKitties' breeding step (Fig. 5) over ``send(where, tx,
    on_receipt)``: ``owner`` breeds ``matron`` with ``sire``, both on
    chain ``where``, then has the matron give birth.  ``on_born`` gets
    the ``give_birth`` receipt (its return value is the kitten); a
    failed ``breed_with`` receipt goes to ``on_barren`` instead."""

    def bred(receipt) -> None:
        if not receipt.success:
            on_barren(receipt)
            return
        send(where, sign_transaction(owner, CallPayload(matron, "give_birth")), on_born)

    send(where, sign_transaction(owner, CallPayload(matron, "breed_with", (sire,))), bred)

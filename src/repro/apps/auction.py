"""Clock auction for selling kitties.

CryptoKitties sells both promotional and bred cats through a
descending-price ("clock") auction contract (Section V-B).  The seller
escrows the cat by transferring its ownership to the auction contract;
a bid at or above the current price buys it.  The price interpolates
linearly from ``start_price`` to ``end_price`` over ``duration``
seconds and stays at ``end_price`` afterwards.
"""

from __future__ import annotations

from repro.crypto.keys import Address
from repro.runtime.contract import Contract, MapSlot, external, payable, require, view
from repro.runtime.registry import register_contract


@register_contract
class ClockAuction(Contract):
    """One auction house; many concurrent listings keyed by cat address."""

    # listing fields, keyed by the cat contract's address
    seller = MapSlot(Address, Address)
    start_price = MapSlot(Address, int)
    end_price = MapSlot(Address, int)
    duration = MapSlot(Address, int)
    started_at = MapSlot(Address, int)

    @external
    def create_auction(
        self, kitty: Address, start_price: int, end_price: int, duration: int
    ) -> None:
        """List a cat.  The seller must have transferred the cat's
        ownership to this auction contract beforehand (escrow)."""
        require(duration > 0, "duration must be positive")
        require(start_price >= end_price, "clock auctions descend")
        require(self.seller[kitty] is None, "already listed")
        cat_owner = self.call(kitty, "get_owner")
        require(cat_owner == self.address, "cat not escrowed to the auction")
        self.seller[kitty] = self.msg.sender
        self.start_price[kitty] = start_price
        self.end_price[kitty] = end_price
        self.duration[kitty] = duration
        self.started_at[kitty] = int(self.now)
        self.emit("AuctionCreated", kitty=kitty.hex, start=start_price, end=end_price)

    @view
    def current_price(self, kitty: Address) -> int:
        """The descending clock price right now."""
        require(self.seller[kitty] is not None, "not listed")
        elapsed = int(self.now) - self.started_at[kitty]
        total = self.duration[kitty]
        if elapsed >= total:
            return self.end_price[kitty]
        span = self.start_price[kitty] - self.end_price[kitty]
        return self.start_price[kitty] - (span * elapsed) // total

    @payable
    def bid(self, kitty: Address) -> None:
        """Buy at the current clock price; overpayment is refunded."""
        price = self.current_price(kitty)
        require(self.msg.value >= price, "bid below the clock price")
        seller = self.seller[kitty]
        self._delist(kitty)
        self.call(kitty, "transfer_ownership", self.msg.sender)
        if price:
            self.transfer(seller, price)
        overpay = self.msg.value - price
        if overpay:
            self.transfer(self.msg.sender, overpay)
        self.emit("AuctionSuccessful", kitty=kitty.hex, price=price, winner=self.msg.sender.hex)

    @external
    def cancel_auction(self, kitty: Address) -> None:
        """The seller reclaims an unsold cat."""
        seller = self.seller[kitty]
        require(seller is not None, "not listed")
        require(self.msg.sender == seller, "only the seller cancels")
        self._delist(kitty)
        self.call(kitty, "transfer_ownership", seller)
        self.emit("AuctionCancelled", kitty=kitty.hex)

    def _delist(self, kitty: Address) -> None:
        del self.seller[kitty]
        del self.start_price[kitty]
        del self.end_price[kitty]
        del self.duration[kitty]
        del self.started_at[kitty]

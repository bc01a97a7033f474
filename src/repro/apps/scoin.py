"""SCoin: the paper's scalable, movable token (Section V-A).

Classic ERC20 keeps every balance in one map inside one contract — a
shape that cannot be shared across chains, since a contract lives on
exactly one chain at a time.  SCoin instead mints **one account
contract per user** (``SAccount``); accounts move between chains freely
and transfer tokens only to accounts on the same chain.

Origin attestation.  When accounts ``A`` and ``B`` meet on some chain,
how does ``A`` know ``B`` is a genuine sibling and not a forgery whose
``debit`` mints tokens out of thin air?  SCoin creates accounts with
CREATE2 and a monotonically increasing **salt** stored in each
account's state: given ``B``'s claimed salt, ``A`` recomputes
``create2(parent_chain, parent, salt, code_hash)`` — one cheap hash —
and compares it with ``B``'s address.  The code hash pins the exact
``SAccount`` code, the parent pins the factory, so a match proves ``B``
was created by the same SCoin with the same code.  ``debit`` runs the
same check against its *caller* before crediting.

:func:`open_accounts` is the client side: how every load driver builds
a token world.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Sequence, Tuple

from repro.chain.tx import CallPayload, DeployPayload, sign_transaction
from repro.crypto.hashing import keccak
from repro.crypto.keys import Address, KeyPair, create2_address
from repro.lang.movable import MovableContract
from repro.runtime.contract import MapSlot, Slot, external, payable, require, view
from repro.runtime.registry import register_contract


@register_contract
class SAccount(MovableContract):
    """One user's token account — a movable contract.

    ``owner`` (inherited) is the controlling user; ``parent`` /
    ``parent_chain`` / ``salt`` pin this account's provenance and move
    with it, so attestation works on any chain the account visits.
    """

    parent = Slot(Address)
    parent_chain = Slot(int)
    salt = Slot(int)
    token_count = Slot(int)
    allowances = MapSlot(Address, int)

    def init(self, user: Address, salt: int) -> None:
        """Bind the account to its user, parent and CREATE2 salt."""
        self.owner = user
        self.parent = self.msg.sender  # the SCoin factory
        self.parent_chain = self.chain_id
        self.salt = salt

    # -- views ---------------------------------------------------------

    @view
    def token_balance(self) -> int:
        """Tokens held by this account."""
        return self.token_count

    @view
    def origin_salt(self) -> int:
        """The CREATE2 salt — siblings read it to attest this account."""
        return self.salt

    @view
    def allowance(self, spender: Address) -> int:
        """Remaining allowance granted to ``spender``."""
        return self.allowances[spender]

    # -- origin attestation ---------------------------------------------

    def _attest_sibling(self, address: Address, claimed_salt: int) -> bool:
        expected = create2_address(
            self.parent_chain, self.parent, claimed_salt, type(self).CODE_HASH
        )
        return expected == address

    # -- token movement ---------------------------------------------------

    def _send(self, to: Address, tokens: int) -> bool:
        require(tokens >= 0, "negative amount")
        require(self.token_count >= tokens, "insufficient tokens")
        to_salt = self.call(to, "origin_salt")
        require(self._attest_sibling(to, to_salt), "destination is not a sibling account")
        self.token_count -= tokens
        proof = int(self.salt).to_bytes(32, "big")
        require(self.call(to, "debit", tokens, proof), "debit refused")
        self.emit("Transfer", to=to.hex, tokens=tokens)
        return True

    @external
    def transfer_tokens(self, to: Address, tokens: int) -> bool:
        """Owner-initiated transfer to a sibling on the same chain."""
        require(self.msg.sender == self.owner, "only the owner transfers")
        return self._send(to, tokens)

    @external
    def approve(self, spender: Address, tokens: int) -> bool:
        """Grant ``spender`` an allowance (ERC20 approve)."""
        require(self.msg.sender == self.owner, "only the owner approves")
        self.allowances[spender] = tokens
        self.emit("Approval", spender=spender.hex, tokens=tokens)
        return True

    @external
    def transfer_from(self, to: Address, tokens: int) -> bool:
        """Spend an allowance granted to ``msg.sender``."""
        allowed = self.allowances[self.msg.sender]
        require(allowed >= tokens, "allowance exceeded")
        self.allowances[self.msg.sender] = allowed - tokens
        return self._send(to, tokens)

    @external
    def debit(self, tokens: int, proof: bytes) -> bool:
        """Credit this account; the caller must prove sibling origin.

        ``proof`` is the calling account's salt: we recompute its
        CREATE2 address and compare with ``msg.sender`` (Section V-A:
        "holding a proof in B that it was created by the same contract
        that created A").
        """
        sender_salt = int.from_bytes(proof, "big")
        require(
            self._attest_sibling(self.msg.sender, sender_salt),
            "caller is not a sibling account",
        )
        self.token_count += tokens
        return True

    @external
    def mint(self, tokens: int) -> bool:
        """Credit freshly minted tokens — only callable by the parent
        SCoin (on the account's home chain)."""
        require(self.msg.sender == self.parent, "only the parent mints")
        self.token_count += tokens
        return True

    # -- generic (Merkle-proof) attestation --------------------------------
    #
    # Section V-A: "A more generic method could be devised using Merkle
    # proofs with the same proposed interfaces."  Instead of recomputing
    # a CREATE2 address, the sibling presents a proof that the parent
    # SCoin's ``accounts`` map contains it, verified against the parent
    # chain's p-confirmed headers through the light-client builtin.
    # Useful when accounts meet on a chain whose runtime cannot
    # recompute the source chain's address scheme.

    def _check_membership_proof(self, proof, salt: int, member: Address) -> None:
        require(proof.container == self.parent, "proof is not about the parent")
        require(proof.chain_id == self.parent_chain, "proof is for the wrong chain")
        require(
            proof.key == SCoin.account_map_key(salt), "proof is for a different salt"
        )
        require(proof.value == member.raw, "proof names a different account")
        require(self.verify_remote_state(proof), "remote proof rejected")

    @external
    def debit_with_proof(self, tokens: int, salt: int, proof) -> bool:
        """Credit this account; the caller proves sibling origin with a
        Merkle proof of the parent's accounts map."""
        self._check_membership_proof(proof, salt, self.msg.sender)
        self.token_count += tokens
        return True

    @external
    def transfer_tokens_with_proofs(
        self, to: Address, tokens: int,
        to_salt: int, to_proof, my_salt: int, my_proof,
    ) -> bool:
        """Proof-attested transfer: the sender verifies the receiver's
        membership proof, then hands the receiver a proof of its own."""
        require(self.msg.sender == self.owner, "only the owner transfers")
        require(tokens >= 0, "negative amount")
        require(self.token_count >= tokens, "insufficient tokens")
        self._check_membership_proof(to_proof, to_salt, to)
        self.token_count -= tokens
        require(
            self.call(to, "debit_with_proof", tokens, my_salt, my_proof),
            "debit refused",
        )
        self.emit("Transfer", to=to.hex, tokens=tokens)
        return True


@register_contract
class SCoin(MovableContract):
    """The token factory implementing ``STokenI``.

    Lives on its home chain; accounts it creates roam.  ``owner`` (the
    deployer) controls minting, mirroring promotional issuance.
    """

    supply = Slot(int)
    next_salt = Slot(int)
    accounts = MapSlot(int, Address)  # salt -> account address

    @view
    def total_supply(self) -> int:
        """Tokens minted across all accounts (Listing 2)."""
        return self.supply

    def _new_account(self, user: Address) -> Tuple[Address, int]:
        salt = self.next_salt
        self.next_salt = salt + 1
        account = self.create(SAccount, user, salt, salt=salt)
        self.accounts[salt] = account
        self.emit("CreatedAccount", account=account.hex, salt=salt)
        return account, salt

    @payable
    def new_account(self) -> Tuple[Address, int]:
        """Create an account owned by the caller (Listing 2)."""
        return self._new_account(self.msg.sender)

    @payable
    def new_account_for(self, for_addr: Address) -> Tuple[Address, int]:
        """Create an account owned by ``for_addr`` (Listing 2)."""
        return self._new_account(for_addr)

    @external
    def mint_to(self, account: Address, tokens: int) -> bool:
        """Issue tokens to an account contract (deployer only)."""
        require(self.msg.sender == self.owner, "only the token owner mints")
        require(self.call(account, "mint", tokens), "mint refused")
        self.supply += tokens
        return True

    @view
    def account_of(self, salt: int) -> Address:
        """The account contract created with ``salt``."""
        return self.accounts[salt]

    @staticmethod
    def account_map_key(salt: int) -> bytes:
        """Storage key of ``accounts[salt]`` — what a membership proof
        of the map must target (clients and verifying siblings both
        derive it from the declared slot layout)."""
        from repro.runtime.contract import encode_key

        return keccak(SCoin.accounts.base, encode_key(salt))


def open_accounts(
    send: Callable,
    where: int,
    owner: KeyPair,
    holders: Sequence[KeyPair],
    tokens: int,
    on_ready: Callable[[Address, List[Address]], None],
) -> None:
    """SCoin's client setup (Listing 2) over ``send(where, tx,
    on_receipt)``: ``owner`` deploys the token, each holder opens its
    account with ``new_account_for``, and ``owner`` mints ``tokens`` to
    each account as it opens.  ``on_ready(token, accounts)`` fires once
    every mint is included, accounts in holder order.  Any failed
    receipt raises ``AssertionError``."""
    accounts = [None] * len(holders)
    unminted = len(holders)

    def deployed(receipt) -> None:
        assert receipt.success, receipt.error
        token = receipt.return_value
        for index, holder in enumerate(holders):
            payload = CallPayload(token, "new_account_for", (holder.address,))
            send(where, sign_transaction(holder, payload), partial(opened, token, index))

    def opened(token: Address, index: int, receipt) -> None:
        assert receipt.success, receipt.error
        accounts[index], _salt = receipt.return_value
        payload = CallPayload(token, "mint_to", (accounts[index], tokens))
        send(where, sign_transaction(owner, payload), partial(minted, token))

    def minted(token: Address, receipt) -> None:
        nonlocal unminted
        assert receipt.success, receipt.error
        unminted -= 1
        if unminted == 0:
            on_ready(token, accounts)

    send(where, sign_transaction(owner, DeployPayload(code_hash=SCoin.CODE_HASH)), deployed)

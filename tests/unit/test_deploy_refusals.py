"""A deploy of code this chain cannot run is a typed refusal.

A ``DeployPayload`` names its code by hash.  A hash that is not
``bytes``, or that no registered contract has, is the sender's error:
the executor refuses it with a :class:`~repro.errors.Revert`, charges
the gas it burned like any failed transaction, and does not count it in
``chain_tx_faults_total`` (which counts contract faults).
"""

import pytest

from repro.chain.chain import Chain
from repro.chain.params import burrow_params
from repro.chain.tx import DeployPayload, TransferPayload
from tests.helpers import ALICE, BOB, ManualClock, run_tx

FAULT_KINDS = ("CodeNotFound", "AttributeError", "TypeError")


def _faults(chain):
    return sum(
        chain.telemetry.metrics.counter(
            "chain_tx_faults_total", chain=chain.chain_id, kind=kind
        ).value
        for kind in FAULT_KINDS
    )


@pytest.mark.parametrize(
    "code_hash,error",
    [
        (b"\x07" * 32, "Revert: unknown code hash 0707070707070707…"),
        (b"", "Revert: unknown code hash …"),
        (12345, "Revert: code hash must be bytes, not int"),
        ("0x07", "Revert: code hash must be bytes, not str"),
    ],
    ids=["unknown", "empty", "int", "str"],
)
def test_a_deploy_of_unrunnable_code_is_refused_not_faulted(code_hash, error):
    chain = Chain(burrow_params(1, gas_price=1))
    chain.fund({ALICE.address: 10**9})
    clock = ManualClock()
    transfer = run_tx(chain, clock, ALICE, TransferPayload(BOB.address, 1))
    assert transfer.success, transfer.error
    balance = chain.balance_of(ALICE.address)

    receipt = run_tx(chain, clock, ALICE, DeployPayload(code_hash=code_hash))
    assert not receipt.success
    assert receipt.error == error
    # What any transaction refused before it ran code pays: the base.
    assert receipt.gas_used == transfer.gas_used
    assert receipt.fee_paid == receipt.gas_used * chain.params.gas_price > 0
    assert chain.balance_of(ALICE.address) == balance - receipt.fee_paid
    assert _faults(chain) == 0
    assert chain.height == 2  # the chain went on committing

"""``VS``'s trust boundary under header-stream faults (§IV-A).

A light client trusts a root only when its header is ``p`` deep on the
longest linked branch.  These runs put a forged header in front of an
observer whose view of the source lags, and check that the forged root
is never trusted while the honest one is — at the end of every chaos
run, :meth:`InvariantChecker.check_trusted_headers` asserts the same
for every observer of a Burrow source.
"""

import pytest

from repro.chain.block import BlockHeader
from repro.chain.chain import Chain
from repro.chain.params import burrow_params
from repro.crypto.hashing import keccak
from repro.errors import InvariantViolation
from repro.faults import FaultEvent, FaultPlan, InvariantChecker
from repro.faults.chaos import run_chaos
from repro.ibc.headers import connect_chains

from tests.helpers import ManualClock, produce

# Withhold chain 1's headers from t=50 for 20 s, then equivocate on
# chain 1 at t=60: the fake's parent is stuck in the withheld queue.
WITHHELD_EQUIVOCATION = FaultPlan(
    seed=3,
    duration=200.0,
    events=(
        FaultEvent(50.0, "withhold_headers", chain=1, duration=20.0),
        FaultEvent(60.0, "equivocate", chain=1),
    ),
)


def test_an_equivocation_behind_withheld_headers_is_never_trusted():
    report = run_chaos(3, duration=200.0, workload="scoin", plan=WITHHELD_EQUIVOCATION)
    # Chain 2 had not seen the fake's parent: the header is detached,
    # refused, and counted.  The run finishing means the end-of-run
    # trust check found every p-confirmed chain-1 header on chain 2
    # equal to the one chain 1 committed.
    assert report.injected == {
        "withhold_headers": 1,
        "equivocate": 1,
        "equivocate_undeliverable": 1,
    }
    assert report.equivocations_rejected == 0
    assert report.invariant_checks > 0


def test_the_trust_check_flags_a_forged_branch_that_outgrew_the_source():
    source = Chain(burrow_params(1))
    observer = Chain(burrow_params(2))
    connect_chains([source, observer])
    produce(source, ManualClock(), 6)
    checker = InvariantChecker([source, observer])
    checker.check_trusted_headers()  # the honest view passes
    parent = source.blocks[2].header
    for height in range(3, source.height + 2):
        parent = BlockHeader(
            chain_id=1,
            height=height,
            parent_hash=parent.hash(),
            state_root=keccak(f"forged-{height}".encode()),
            txs_root=parent.txs_root,
            timestamp=float(height),
            proposer="forger",
        )
        observer.ingest_header(parent)
    with pytest.raises(InvariantViolation, match="VS-trust"):
        checker.check_trusted_headers()

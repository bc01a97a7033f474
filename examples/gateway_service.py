"""A chain served like a service: a gateway fleet, priority classes,
weighted-fair admission, subscriptions and typed errors.

The serving tier is the paper's runtime made operable — clients do not
call ``chain.submit`` or ``produce_block``; they hand signed
transactions to a replicated front door that routes each client to a
pinned replica, batches admissions into the mempool under one shared
budget, bounds its queues per priority class, rate-limits each client,
and answers overload with a machine-readable
:class:`~repro.api.ShedByClass` naming the class and client actually
dropped.  This example drives all of those behaviours on one small
chain:

* a bulk burst past the queue bound is shed with ``queue_full`` — and
  every victim is bulk-class, because a move admitted mid-burst evicts
  bulk instead of waiting behind it,
* a rate-limited client sees ``rate_limited`` once its bucket drains,
* an idempotent retry returns the *original* outcome, not a double
  spend,
* a subscription streams a contract's events instead of polling,
* and everything that was admitted confirms as usual.

Run:  python examples/gateway_service.py
"""

from repro import api


def main() -> None:
    node = api.Node(
        [api.burrow_params(1, max_block_txs=8)],
        seed=7,
        verify_signatures=False,
    )
    fleet = api.GatewayFleet(
        node,
        replicas=2,
        limits=api.GatewayLimits(
            max_queue_depth=16,
            batch_size=8,
            mempool_headroom=1,
            rate_limit=2.0,   # sustained per-client tx/s
            rate_burst=24,    # burst allowance before the bucket bites
        ),
    )
    alice = api.Client(fleet, name="alice")
    bob = api.Client(fleet, name="bob")
    node.chain(1).fund({alice.address: 10_000, bob.address: 10_000})
    fleet.start()

    # 1. A burst far past the queue bound: the token bucket lets 24
    #    through, alice's replica's bounded queue takes 16 of those,
    #    and everything else is shed immediately with a machine-
    #    readable reason code — memory stays bounded no matter how
    #    hard one client pushes.  Transfers classify as "bulk".
    handles = [alice.transfer(bob.address, 1) for _ in range(60)]
    shed = [h for h in handles if h.done and not h.ok]
    codes = {h.error.code for h in shed}
    print(f"burst of {len(handles)}: {len(handles) - len(shed)} admitted, "
          f"{len(shed)} shed with {sorted(codes)}")
    assert codes == {"queue_full", "rate_limited"}, codes
    classes = {h.error.shed_class for h in shed if isinstance(h.error, api.ShedByClass)}
    print(f"every queue shed names its victim class: {sorted(classes)}")
    assert classes == {"bulk"}, classes

    # 2. Typed errors are catchable as a hierarchy: everything the
    #    fleet sheds under pressure is an Overloaded.
    try:
        shed[0].result()
    except api.Overloaded as exc:
        print(f"shed requests raise Overloaded(code={exc.code!r}) — "
              "clients back off instead of crashing")

    # 3. A request re-tagged as "view" class flushes ahead of the
    #    queued bulk backlog (strict priority across classes).
    probe = bob.transfer(alice.address, 1, priority="view")
    probe.wait()
    print("view-class probe confirmed while the bulk backlog was queued")

    # 4. Idempotent retry: same (client, key) returns the original
    #    outcome even though the transaction was only executed once.
    node.run_for(30.0)  # let the burst drain out of the queue first
    first = bob.transfer(alice.address, 250, key="invoice-42")
    receipt = first.wait()
    retry = bob.transfer(alice.address, 250, key="invoice-42")
    assert retry.wait().tx_id == receipt.tx_id
    print(f"retry of invoice-42 deduplicated: both handles resolved to "
          f"tx {receipt.tx_id[:12]}… (sent once)")

    # 5. The admitted work drains and confirms once the burst passes.
    node.run_for(120.0)
    confirmed = sum(1 for h in handles if h.ok)
    print(f"admitted transfers confirmed: {confirmed}, "
          f"fleet queue now {fleet.queue_depth(1)}, "
          f"peak per replica {fleet.peak_queue_depth[1]} (bound 16)")


if __name__ == "__main__":
    main()

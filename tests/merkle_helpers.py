"""Seeded tree histories and proof fingerprints shared by the
:mod:`repro.merkle` unit tests (imports nothing above that package)."""

import hashlib
import random
from typing import Tuple


def churn(factory, seed=14, ops=2000, keyspace=600, read_every=0):
    """A fixed insert/overwrite/delete history on ``factory()`` and the
    dict it leaves; ``read_every=n`` also reads the root every n ops."""
    rng = random.Random(seed)
    tree, model = factory(), {}
    for op in range(ops):
        k = b"k%04d" % rng.randrange(keyspace)
        if rng.random() < 0.25:
            assert tree.delete(k) == (k in model)
            model.pop(k, None)
        else:
            v = rng.randbytes(rng.randrange(1, 24))
            tree.set(k, v)
            model[k] = v
        if read_every and op % read_every == 0:
            tree.root_hash
    return tree, model


def proof_pin(proof) -> Tuple[int, int, str, str]:
    """``(len, size_bytes, computed_root, SHA3 of the proof's bytes)``:
    everything Move2 gas and replay digests see of a proof."""
    blob = proof.leaf_prefix + proof.key + proof.value
    blob += b"".join(prefix + suffix for prefix, suffix in proof.steps)
    return (
        len(proof),
        proof.size_bytes(),
        proof.computed_root().hex(),
        hashlib.sha3_256(blob).hexdigest(),
    )

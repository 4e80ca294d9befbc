"""The verifier differential: many generated templates under one pinned hash.

Every `topology_gen.random_topology` and `random_clean_dag` seed in SEEDS,
taken as written, and `builders.rekey_cascade` at each length in CHAINS
goes through `verify(fix=True, seed=...)`.  The hash covers, per input,
the report as `report_to_dict` renders it, each finding's location and
the repaired template as `serialize_template` writes it; or, where verify
raises, the error's class and message.

It was recorded at a commit whose outputs matched every golden digest; a
change to the verifier that moves it on purpose records it again and
says why.
"""

import hashlib

import builders
import topology_gen
from toscaflow import report_to_dict, serialize_template, verify
from toscaflow.errors import ToscaflowError

SEEDS = range(150)
CHAINS = range(1, 5)  # the last needs more fix passes than verify makes

DIGEST = "d8d8ef509cc09d057a8169923379a8909880921b286e9120563e9e760ec52e1d"


def _inputs():
    for seed in SEEDS:
        for generate in (topology_gen.random_topology, topology_gen.random_clean_dag):
            yield seed, generate(seed)
    for chains in CHAINS:
        yield chains, builders.rekey_cascade(chains)


def _outcome(template, seed):
    try:
        fixed, diagnostics = verify(template, fix=True, seed=seed)
    except ToscaflowError as exc:
        return ("error", type(exc).__name__, str(exc))
    return (report_to_dict(diagnostics, any(d.fix for d in diagnostics)),
            [repr(d.location) for d in diagnostics],
            serialize_template(fixed))


def test_every_generated_template_verifies_to_its_recorded_hash():
    digest = hashlib.sha256()
    errors = 0
    for seed, template in _inputs():
        outcome = _outcome(template, seed)
        errors += outcome[0] == "error"
        digest.update(repr(outcome).encode())
    assert errors >= 1  # the longest cascade does not converge
    assert digest.hexdigest() == DIGEST

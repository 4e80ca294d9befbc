"""The scheduling rule and the invoked function, pinned for R6 and the stages.

R6 and the simulator read one answer for when a block fires on its cron and
which property names its function.  These tests hold both to copies of the
rule as each layer once spelled it on its own: on every fixture and on
generated topologies, clean, random and with odd scheduling values, each
as written and as `verify(fix=True)` repairs it.
"""

import pathlib
import random

import pytest

import topology_gen
from toscaflow import catalog as cat
from toscaflow import simulator
from toscaflow.cron import is_valid_cron, parse_cron
from toscaflow.errors import CronSyntaxError, ToscaflowError, UnsupportedTypeError
from toscaflow.parsing import parse_service_template
from toscaflow.topology import Topology
from toscaflow.verifier import ERROR, R6_SCHEDULING, Diagnostic, check_scheduling, verify

FIXTURES = sorted((pathlib.Path(__file__).parent / "fixtures").glob("*.yaml"))


def _self(prop):
    return {"get_property": ["SELF", prop]}


ODD_STRATEGIES = (None, "CRON_DRIVEN", "EVENT_DRIVEN", "TIMER_DRIVEN", 7,
                  _self("schedulingStrategy"))
ODD_CRONS = (None, "*/5 * * * * ?", "bogus", 7, _self("schedulingPeriodCRON"),
             "0 * * * * ?", {"get_property": ["SELF", "name"]})
ODD_KEYS = (None, "", 3, "fn", _self("function_name"), _self("script_path"))


def _odd_scheduling(template, seed):
    """`template` with seeded odd scheduling and function values on every
    pipeline, declared by its type or not."""
    rng = random.Random(seed)
    for name in Topology(template).pipelines:
        values = template.node_templates[name].property_values
        values["schedulingStrategy"] = rng.choice(ODD_STRATEGIES)
        values["schedulingPeriodCRON"] = rng.choice(ODD_CRONS)
        for key in sorted(set(cat.INVOKER_KEYS.values())):
            values[key] = rng.choice(ODD_KEYS)
    return template


def _inputs():
    cases = {path.name: lambda path=path: parse_service_template(
        path.read_text(encoding="utf-8"), filename=path.name) for path in FIXTURES}
    for seed in range(10):
        cases[f"clean_{seed}"] = lambda seed=seed: topology_gen.random_clean_dag(seed)
        cases[f"random_{seed}"] = lambda seed=seed: topology_gen.random_topology(seed)
        cases[f"odd_clean_{seed}"] = lambda seed=seed: _odd_scheduling(
            topology_gen.random_clean_dag(seed), seed)
        cases[f"odd_random_{seed}"] = lambda seed=seed: _odd_scheduling(
            topology_gen.random_topology(seed), seed)
    return cases


INPUTS = _inputs()


def _templates(name):
    """The input as written and, where the repair converges, repaired."""
    template = INPUTS[name]()
    out = [template]
    try:
        out.append(verify(template, fix=True, seed=0)[0])
    except ToscaflowError:
        pass
    return out


# -- copies of the rule as each layer spelled it -----------------------------

def _copied_stage_rule(topo, name):
    """(cron text or None, function key property or None) as the simulator's
    `_build_stage` once decided them."""
    resolved = topo.resolved_node(name)
    if "schedulingStrategy" in resolved.properties:
        cron_driven = topo.effective_property(name, "schedulingStrategy") \
            == "CRON_DRIVEN"
    else:
        cron_driven = "schedulingPeriodCRON" in resolved.properties
    cron = str(topo.effective_property(name, "schedulingPeriodCRON")) \
        if cron_driven else None
    key = next((key for type_name, key in cat.INVOKER_KEYS.items()
                if type_name in resolved.ancestry), None)
    return cron, key


def _copied_r6(topo):
    """R6's findings as the verifier's own loop once gave them."""
    out = []

    def finding(name, message, why):
        out.append(Diagnostic(R6_SCHEDULING, ERROR, [name],
                              f"{message} ({why})" if why else message))

    for name in topo.pipelines:
        resolved = topo.resolved_node(name)
        if "schedulingStrategy" in resolved.properties:
            strategy, why = topo.evaluate_property(name, "schedulingStrategy")
            if strategy not in cat.SCHEDULING_STRATEGIES:
                finding(name, f"{name!r} has schedulingStrategy {strategy!r}, "
                        f"allowed: {', '.join(cat.SCHEDULING_STRATEGIES)}", why)
            elif strategy == "CRON_DRIVEN":
                expr, why = topo.evaluate_property(name, "schedulingPeriodCRON")
                if not isinstance(expr, str) or not is_valid_cron(expr):
                    finding(name, f"{name!r} is CRON driven but {expr!r} is not "
                            f"a valid cron expression", why)
        elif "schedulingPeriodCRON" in resolved.properties:
            expr, why = topo.evaluate_property(name, "schedulingPeriodCRON")
            if not isinstance(expr, str) or not is_valid_cron(expr):
                finding(name, f"{name!r} schedules only by cron but {expr!r} is "
                        f"not a valid cron expression", why)
        key = next((key for type_name, key in cat.INVOKER_KEYS.items()
                    if type_name in resolved.ancestry), None)
        if key is not None:
            _, why = topo.evaluate_property(name, key)
            if why:
                finding(name, f"{name!r} cannot evaluate its {key}", why)
    return out


# -- the pins ----------------------------------------------------------------

def _stage_outcomes(topo):
    """Pipeline -> (cron text or None, function key) of its stage, or the
    error building it raised.  Each stage is built on its own, as
    `instantiate` builds it, even when an earlier one fails and whether
    or not the connections form a cycle."""
    flow = simulator.Flow(topo.template)
    outcomes = {}
    for name in topo.pipelines:
        try:
            stage = simulator._build_stage(topo, flow, name)
        except ToscaflowError as exc:
            outcomes[name] = exc
            continue
        outcomes[name] = (None if stage.cron is None else stage.cron.text,
                          stage.function_key)
    return outcomes


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_each_stage_fires_and_invokes_as_the_copied_rule_says(name):
    for template in _templates(name):
        topo = Topology(template)
        outcomes = _stage_outcomes(topo)
        assert sorted(outcomes) == topo.pipelines
        for pipeline, outcome in outcomes.items():
            cron, key = _copied_stage_rule(topo, pipeline)
            if cron is not None and not is_valid_cron(cron):
                with pytest.raises(CronSyntaxError) as expected:
                    parse_cron(cron)
                assert (type(outcome), str(outcome)) == \
                    (CronSyntaxError, str(expected.value))
                continue
            if isinstance(outcome, UnsupportedTypeError):
                continue  # no behaviour to check the rule against
            function_key = "" if key is None \
                else str(topo.effective_property(pipeline, key) or "")
            assert outcome == (cron, function_key)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_r6_finds_what_the_copied_loop_finds(name):
    for template in _templates(name):
        assert [d.to_dict() for d in check_scheduling(template)] == \
            [d.to_dict() for d in _copied_r6(Topology(template))]

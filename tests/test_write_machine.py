"""Every write leaves a bundle that parses, or changes nothing.

A hypothesis state machine drives the public operations, and events built
by hand and sent through ``audit.commit``, over a bundle: laws repeated or
renamed in a bump, route assumptions renamed in a revision, declarations
added under taken or fresh ids, flows recorded under taken or fresh ids,
contracts and flows between declared layers, undeclared ones and bare
names, units, routes, contracts and flows under an undeclared layer, texts
citing declarations, and reversals and quarantines of scanned events.
After every step:

- an accepted write re-parses with no error;
- a rejected one raises ``OperationRejected`` and leaves the bytes as they
  were (any other exception fails the test);
- the live bundle serializes as ``replay`` of its log does;
- ``compliance_verdict`` returns, with no E_REPLAY_DIVERGENCE finding.
"""

import json
import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from genbundles import inject_borrowings, random_bundle_dict
from toy import toy_text

from recap_engine.audit import commit, replay
from recap_engine.bundle import clone, declared_ids, encode, parse_bundle, serialize_bundle
from recap_engine.contamination import record_flow, resolve_contamination, scan_bundle
from recap_engine.diagnostics import OperationRejected
from recap_engine.identifiers import Identifier
from recap_engine.layers import bump_version
from recap_engine.model import (
    BundleIndex,
    ChangelogEntry,
    ContaminationEvent,
    ContaminationSite,
    FlowEvent,
    Law,
    RouteRevision,
)
from recap_engine.records import replace
from recap_engine.reporting import compliance_verdict
from recap_engine.routing import declare_route, freeze_route, revise_route
from recap_engine.tiering import declare_tier, tier_unit


def _borrowing_text() -> str:
    doc = random_bundle_dict(random.Random(0), n_parents=1, n_children=2)
    assert inject_borrowings(doc)
    return serialize_bundle(parse_bundle(json.dumps(doc)).bundle)


#: The bundles a run starts from: the toy (one child, a frozen route, a
#: cited abstraction) and one with a borrowing at every place the scan checks.
BASES = {"toy": toy_text(), "borrowing": _borrowing_text()}

picks = st.integers(0, 2**16)


class WriteMachine(RuleBasedStateMachine):
    @initialize(base=st.sampled_from(sorted(BASES)))
    def start(self, base):
        self.initial = parse_bundle(BASES[base]).bundle
        self.live = clone(self.initial)
        self.tick = 0

    # -- helpers ------------------------------------------------------------

    def stamp(self) -> str:
        self.tick += 1
        return f"2027-01-01T{self.tick // 3600:02d}:{self.tick // 60 % 60:02d}:{self.tick % 60:02d}Z"

    def taken(self, k: int) -> Identifier:
        """One of the ids the live bundle declares."""
        ids = declared_ids([self.live])
        return ids[k % len(ids)]

    def attempt(self, operation) -> None:
        before = serialize_bundle(self.live)
        try:
            operation()
        except OperationRejected:
            assert serialize_bundle(self.live) == before
            return
        assert parse_bundle(serialize_bundle(self.live)).errors() == []

    # -- operations ---------------------------------------------------------

    @rule(k=picks)
    def freeze(self, k):
        project = self.live.projects[k % len(self.live.projects)]
        self.attempt(lambda: freeze_route(self.live, project.id, timestamp=self.stamp()))

    @rule(k=picks, mode=st.sampled_from(["fresh", "repeat", "rename"]))
    def bump(self, k, mode):
        gp = self.live.grandparent()
        laws = list(gp.laws)
        fresh = Law(Identifier("gp", "", f"N{self.tick}"), f"Extends {self.taken(k).render()}.")
        if mode == "fresh":
            laws.append(fresh)
        elif mode == "repeat":
            laws.append(laws[k % len(laws)])
        else:
            laws[k % len(laws)] = replace(laws[k % len(laws)], id=self.taken(k // 3))
        major, minor = gp.version[1:].split(".")
        stamp = self.stamp()
        entry = ChangelogEntry(gp.version, f"v{major}.{int(minor) + 1}", "An insight.",
                               "Flow governance.", "Holds for every child.", stamp)
        self.attempt(lambda: bump_version(self.live, entry, laws, timestamp=stamp))

    @rule(k=picks, fresh=st.booleans())
    def rename_assumption(self, k, fresh):
        project = self.live.projects[k % len(self.live.projects)]
        route = BundleIndex(self.live).routes.get(project.committed_route)
        if route is None or not route.assumptions:
            return
        assumptions = list(route.assumptions)
        old = assumptions[k % len(assumptions)]
        name = Identifier("child", old.id.owner, f"AX{self.tick}") if fresh else self.taken(k)
        assumptions[k % len(assumptions)] = replace(old, id=name)
        body = replace(route, assumptions=tuple(assumptions))
        stamp = self.stamp()
        revision = RouteRevision(stamp, "New evidence.", "Coherence is re-checked.", "Renamed.")
        self.attempt(lambda: revise_route(self.live, project.id, revision, body, timestamp=stamp))

    @rule(k=picks, kind=st.sampled_from(["unit", "law", "abstraction"]), fresh=st.booleans())
    def add_declaration(self, k, kind, fresh):
        text = f"Read with {self.taken(k // 5).render()}."
        if kind == "unit":
            unit = self.live.units[k % len(self.live.units)]
            name = Identifier("child", unit.study_id.owner, f"U{self.tick}")
            record = encode(replace(unit, study_id=name if fresh else self.taken(k),
                                    explicit_assumptions=(), notes=text))
            payload = {"decl_kind": "unit", "record": record}
        else:
            layer = self.live.layers[k % len(self.live.layers)]
            local = f"D{self.tick}" if fresh else self.taken(k).local_name
            record = ({"id": local, "text": text, "immutable_core": False} if kind == "law" else
                      {"id": local, "kind": "construct", "definition": text, "correspondence": {}})
            payload = {"decl_kind": kind, "layer": layer.id.render(), "record": record}
        self.attempt(lambda: commit(self.live, "declaration_added", payload, actor="machine",
                                    timestamp=self.stamp()))

    @rule(k=picks, upward=st.booleans(), fresh=st.booleans())
    def flow(self, k, upward, fresh):
        children = [layer for layer in self.live.layers if layer.kind == "child"]
        child = children[k % len(children)]
        gp = self.live.grandparent()
        source, dest = (child.id, child.parent_ref) if upward else (gp.id, child.id)
        name = Identifier("child", child.local_name, f"F{self.tick}") if fresh else self.taken(k)
        stamp = self.stamp()
        flow = FlowEvent(name, source, dest, "content", "A finding.", stamp)
        self.attempt(lambda: record_flow(self.live, flow, timestamp=stamp))

    @rule(k=picks, kind=st.sampled_from(["contract", "flow"]),
          ends=st.tuples(*[st.sampled_from(["declared", "undeclared", "bare"])] * 2))
    def link_layers(self, k, kind, ends):
        """Commit a contract or a flow whose ends are each a declared layer,
        a canonical id that no layer declares, or a layer's bare name."""
        layers = self.live.layers
        children = [layer for layer in layers if layer.kind == "child"]
        child = children[k % len(children)]
        a, b = (
            {"declared": layer.id.render(), "bare": layer.local_name,
             "undeclared": f"child:L{self.tick}:L{self.tick}"}[how]
            for how, layer in zip(ends, (layers[k % len(layers)], layers[k // 7 % len(layers)]))
        )
        name, stamp = f"child:{child.local_name}:K{self.tick}", self.stamp()
        if kind == "contract":
            record = {"id": name, "info_type": "content", "origin_layer": a,
                      "destination_layer": b, "legal_justification": "Vetted.",
                      "no_reinterpretation_clause": True, "documentation_ref": "doc"}
            kind, payload = "declaration_added", {"decl_kind": "contract", "record": record}
        else:
            kind, payload = "flow_recorded", {"flow": {
                "id": name, "source_layer": a, "dest_layer": b, "info_class": "content",
                "payload": "A finding.", "timestamp": stamp}}
        self.attempt(lambda: commit(self.live, kind, payload, actor="machine", timestamp=stamp))

    @rule(k=picks, kind=st.sampled_from(["unit", "route", "contract", "flow"]))
    def stray(self, k, kind):
        """Commit a record whose fresh ids name a child layer the bundle
        does not declare."""
        layer = f"L{self.tick}"
        name, stamp = Identifier("child", layer, f"X{self.tick}"), self.stamp()
        if kind == "route":
            project = self.live.projects[k % len(self.live.projects)]
            route = self.live.routes[k % len(self.live.routes)]
            assumptions = tuple(replace(a, id=Identifier("child", layer, f"A{i}"))
                                for i, a in enumerate(route.assumptions))
            body = replace(route, id=name, project_ref=project.id, assumptions=assumptions,
                           frozen_at=None, revisions=(), quarantined=False)
            self.attempt(lambda: declare_route(self.live, project.id, body, commit_route=False,
                                               timestamp=stamp))
            return
        if kind == "unit":
            unit = self.live.units[k % len(self.live.units)]
            record = encode(replace(unit, study_id=name, explicit_assumptions=()))
            kind, payload = "declaration_added", {"decl_kind": "unit", "record": record}
        elif kind == "contract":
            contract = {"id": name.render(), "info_type": "content",
                        "origin_layer": self.live.layers[k % len(self.live.layers)].id.render(),
                        "destination_layer": self.live.grandparent().id.render(),
                        "legal_justification": "Vetted.", "no_reinterpretation_clause": True,
                        "documentation_ref": "doc"}
            kind, payload = "declaration_added", {"decl_kind": "contract", "record": contract}
        else:
            gp = self.live.grandparent().id.render()
            kind, payload = "flow_recorded", {"flow": {
                "id": name.render(), "source_layer": gp, "dest_layer": gp,
                "info_class": "content", "payload": "A finding.", "timestamp": stamp}}
        self.attempt(lambda: commit(self.live, kind, payload, actor="machine", timestamp=stamp))

    @rule(k=picks)
    def cite(self, k):
        unit = self.live.units[k % len(self.live.units)]
        text = f"Read with {self.taken(k // 7).render()}."
        self.attempt(lambda: declare_tier(self.live, unit.study_id, tier_unit(unit).tier, text,
                                          timestamp=self.stamp()))

    @rule(k=picks, action=st.sampled_from(["reverse", "quarantine"]))
    def resolve(self, k, action):
        events = scan_bundle(self.live)
        if not events:
            return
        event = events[k % len(events)]
        event.risks_introduced = "Borrowed unvetted."
        self.attempt(lambda: resolve_contamination(self.live, event, action,
                                                   timestamp=self.stamp()))

    @rule(k=picks)
    def remove_declaration(self, k):
        target = self.taken(k).render()
        event = ContaminationEvent(
            id="CONT-0001", rule_violated="R2_downward_rewrite", direction="downward",
            nature="structural", site=ContaminationSite(container=target), risks_introduced="r",
            corrective_action="reversed", resolved=True,
        )
        payload = {"contamination": encode(event), "action": "reversed",
                   "effects": [{"op": "remove_declaration", "target": target}]}
        self.attempt(lambda: commit(self.live, "contamination_resolved", payload, actor="machine",
                                    timestamp=self.stamp()))

    # -- after every step -----------------------------------------------------

    @invariant()
    def replays_and_judges(self):
        if not hasattr(self, "live"):
            return
        logged = self.live.events[len(self.initial.events):]
        assert serialize_bundle(replay(self.initial, logged)) == serialize_bundle(self.live)
        report = compliance_verdict(self.live)
        assert "E_REPLAY_DIVERGENCE" not in [d.code for d in report.findings]


TestWriteMachine = WriteMachine.TestCase
TestWriteMachine.settings = settings(
    max_examples=80, stateful_step_count=15, deadline=None, derandomize=True, database=None
)

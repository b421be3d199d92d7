"""Text regeneration from a reconstructed subgraph.

The prompt states the subgraph's seed star deterministically: the triples
with a seed at either end, as name tuples sorted by (subject, relation,
object), then a description line per node in ascending id order, under a
fixed versioned instruction. Edges between two hop nodes join entities the
sentence never named, so they are left out; every node the receiver keeps
neighbours a seed, so each one is still named. The offline backend
verbalizes each triple as "subject relation-phrase object" and never renders
the prompt; a remote backend sends ``Prompt.render()``'s text to a chat model
and falls back to the offline template on an empty reply, which
``ReconstructedText.degraded`` flags.
"""

import functools
import re
from dataclasses import dataclass

from .kg import KnowledgeGraph
from .prompts import load_prompt
from .semgraph import Mcsg

GENERATION_PROMPT_FILE = "generation_v1.txt"


@dataclass(frozen=True)
class Prompt:
    instruction: str
    triples: tuple[tuple[str, str, str], ...]  # (subject, relation, object) names
    descriptions_section: tuple[str, ...]
    isolated_names: tuple[str, ...]  # nodes no stated triple touches, ascending id

    def render(self) -> str:
        parts = [self.instruction.rstrip(), "", "Facts:"]
        parts += [f"- {s} -{r}-> {o}" for s, r, o in self.triples]
        parts += ["", "Entity descriptions:"]
        parts += [f"- {line}" for line in self.descriptions_section]
        return "\n".join(parts) + "\n"


def _name_phrase(name: str) -> str:
    return " ".join(name.replace("_", " ").split())


@functools.lru_cache(maxsize=4096)
def verbalize_relation(relation: str) -> str:
    """camelCase / snake_case relation label -> spaced lowercase phrase.
    Memoized: a graph has few labels, and each verbalization runs two regex
    substitutions."""
    s = relation.replace("_", " ")
    s = re.sub(r"(.)([A-Z][a-z]+)", r"\1 \2", s)
    s = re.sub(r"([a-z0-9])([A-Z])", r"\1 \2", s)
    return " ".join(s.split()).lower()


def build_prompt(mcsg: Mcsg, kg: KnowledgeGraph) -> Prompt:
    if not mcsg.nodes:
        raise ValueError("cannot build a prompt from an empty subgraph")
    name = {nid: kg.entities[nid].name for nid in mcsg.nodes}
    seeds = mcsg.seed_nodes
    # Mcsg keeps its edges sorted by (subject, relation, object)
    star = [t for t in mcsg.edges if t.subject in seeds or t.object in seeds]
    triple_names = tuple((name[t.subject], t.relation, name[t.object]) for t in star)
    ordered_nodes = sorted(mcsg.nodes)
    descriptions = tuple(f"{name[n]}: {kg.entities[n].description}" for n in ordered_nodes)
    touched = {t.subject for t in star} | {t.object for t in star}
    isolated = tuple(name[n] for n in ordered_nodes if n not in touched)
    return Prompt(instruction=load_prompt(GENERATION_PROMPT_FILE),
                  triples=triple_names,
                  descriptions_section=descriptions,
                  isolated_names=isolated)


@dataclass(frozen=True)
class ReconstructedText:
    text: str
    degraded: bool = False  # the remote reply was empty and the offline template ran


class StubGenerator:
    """Deterministic template: one clause per triple, '; ' separators, final
    period. Nodes without edges contribute their bare name so no node of the
    subgraph goes unmentioned."""

    def generate(self, prompt: Prompt) -> ReconstructedText:
        clauses = [f"{_name_phrase(s)} {verbalize_relation(r)} {_name_phrase(o)}"
                   for s, r, o in prompt.triples]
        clauses += [_name_phrase(n) for n in prompt.isolated_names]
        return ReconstructedText(text="; ".join(clauses) + ".")


class HttpGenerator:
    """Chat-model backend. Retries on transport errors happen in the HTTP
    layer; an empty reply degrades to the offline template and is flagged."""

    def __init__(self, config):
        self.config = config
        self._fallback = StubGenerator()

    def generate(self, prompt: Prompt) -> ReconstructedText:
        from .remote import chat_completion
        reply = chat_completion(self.config, prompt.render()).strip()
        if not reply:
            return ReconstructedText(text=self._fallback.generate(prompt).text, degraded=True)
        return ReconstructedText(text=reply)


ENRICH_ENTITY_PROMPT_FILE = "enrich_entity_v1.txt"
ENRICH_COMMUNITY_PROMPT_FILE = "enrich_community_v1.txt"


def enrich_kg(kg, remote_config):
    """Fill empty entity descriptions and community summaries through the chat
    backend; everything already filled in passes through untouched. Returns a
    new graph, processed in ascending id order so repeat runs ask the model
    the same questions in the same order."""
    import dataclasses

    from . import kg as kgmod
    from .prompts import load_prompt
    from .remote import chat_completion

    entity_template = load_prompt(ENRICH_ENTITY_PROMPT_FILE)
    community_template = load_prompt(ENRICH_COMMUNITY_PROMPT_FILE)

    def one_line(reply: str) -> str:
        return " ".join(reply.split())

    entities = dict(kg.entities)
    for node_id in sorted(entities):
        ent = entities[node_id]
        if ent.description:
            continue
        facts = []
        for rel, other in sorted(kg.neighbors(node_id)):
            other_ent = kg.entity_by_id(other)
            if other_ent is not None:
                facts.append(f"- {ent.name} {verbalize_relation(rel)} {other_ent.name}")
        prompt = entity_template.format(name=ent.name, community=ent.community,
                                        facts="\n".join(facts) or "- (none recorded)")
        reply = one_line(chat_completion(remote_config, prompt))
        if reply:
            entities[node_id] = ent._replace(description=reply)

    members = {}
    for ent in entities.values():
        members.setdefault(ent.community, []).append(ent.name)
    communities = dict(kg.communities)
    for community_id in sorted(communities):
        com = communities[community_id]
        if com.summary:
            continue
        names = ", ".join(sorted(members.get(community_id, [])))
        prompt = community_template.format(label=com.label or community_id,
                                           members=names or "(none)")
        reply = one_line(chat_completion(remote_config, prompt))
        if reply:
            communities[community_id] = dataclasses.replace(com, summary=reply)

    return kgmod.KnowledgeGraph(entities, communities, list(kg.triples))

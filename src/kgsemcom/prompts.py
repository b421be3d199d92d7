"""Versioned prompt templates, stored as package data so live runs are auditable."""

from functools import cache
from importlib import resources


@cache
def load_prompt(name: str) -> str:
    return (resources.files("kgsemcom") / "data" / "prompts" / name).read_text(encoding="utf-8")

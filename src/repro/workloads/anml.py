"""Loader for ANML (Automata Network Markup Language) files.

ANMLZoo — the paper's benchmark suite — distributes its automata in
Micron's ANML format: a *homogeneous* NFA where each state-transition
element (STE) owns the symbol set on its incoming edges::

    <automata-network>
      <state-transition-element id="q0" symbol-set="[ab]"
                                start-of-data="all-input">
        <activate-on-match element="q1"/>
      </state-transition-element>
      <state-transition-element id="q1" symbol-set="[c]">
        <report-on-match/>
      </state-transition-element>
    </automata-network>

This module converts that representation into our :class:`Nfa` (and on to
a DFA), so users holding real ANMLZoo files can run them through every
engine.  Supported subset: ``state-transition-element``,
``activate-on-match``, ``report-on-match``, ``start-of-data`` values
``start-of-data`` (position 0 only) and ``all-input`` (every position),
and symbol sets as bracket expressions, ``*`` (any symbol), or a single
character.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Dict, FrozenSet, List, Union

from repro.automata.alphabet import nfa_to_dfa
from repro.automata.dfa import Dfa
from repro.automata.nfa import EPSILON, Nfa
from repro.regex import charclass as cc
from repro.regex.parser import _Parser

__all__ = ["parse_symbol_set", "anml_to_nfa", "load_anml", "load_anml_dfa"]


def parse_symbol_set(spec: str) -> FrozenSet[int]:
    """An ANML ``symbol-set`` attribute as a set of byte values."""
    if spec == "*":
        return cc.ALL_BYTES
    if spec.startswith("["):
        parser = _Parser(spec)
        return parser.parse_class()
    if len(spec) == 1:
        return frozenset([ord(spec)])
    # escaped single character like ``\x41``
    if spec.startswith("\\"):
        parser = _Parser(f"[{spec}]")
        return parser.parse_class()
    raise ValueError(f"unsupported symbol-set {spec!r}")


def _strip_namespace(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def anml_to_nfa(xml_text: str, alphabet_size: int = 256) -> Nfa:
    """Convert ANML text into an :class:`Nfa`.

    Homogeneous-to-edge-labeled conversion: each STE becomes one state;
    an ``activate-on-match`` from X to Y becomes an edge X -> Y labeled
    with *Y's* symbol set.  A fresh start state feeds the start STEs; an
    ``all-input`` start keeps the start state active via a self-loop on
    every symbol (the scan-DFA prefix).
    """
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise ValueError(f"not well-formed ANML/XML: {exc}") from exc
    # the network element may be the root or nested one level down
    if _strip_namespace(root.tag) == "automata-network":
        network = root
    else:
        network = next(
            (el for el in root if _strip_namespace(el.tag) == "automata-network"),
            root,
        )

    nfa = Nfa(alphabet_size)
    ids: Dict[str, int] = {}
    symbol_sets: Dict[str, FrozenSet[int]] = {}
    starts: List[str] = []
    all_input = False
    reporting: List[str] = []
    elements = [
        el for el in network
        if _strip_namespace(el.tag) == "state-transition-element"
    ]
    if not elements:
        raise ValueError("no state-transition-element found")
    for el in elements:
        ste_id = el.get("id")
        if ste_id is None:
            raise ValueError("state-transition-element without id")
        ids[ste_id] = nfa.add_state()
        symbol_sets[ste_id] = parse_symbol_set(el.get("symbol-set", "*"))
        start_attr = el.get("start-of-data")
        if start_attr in ("start-of-data", "all-input", "1", "true"):
            starts.append(ste_id)
            if start_attr == "all-input":
                all_input = True

    clipped = {
        ste: sorted(s for s in symbols if s < alphabet_size)
        for ste, symbols in symbol_sets.items()
    }

    entry = nfa.add_state()
    nfa.set_start(entry)
    if all_input:
        nfa.add_symbols_transition(entry, range(alphabet_size), entry)
    if not starts:
        raise ValueError("ANML network has no start element")
    for ste_id in starts:
        nfa.add_symbols_transition(entry, clipped[ste_id], ids[ste_id])

    for el in elements:
        src = ids[el.get("id")]
        for child in el:
            tag = _strip_namespace(child.tag)
            if tag == "activate-on-match":
                target = child.get("element")
                if target not in ids:
                    raise ValueError(f"activation target {target!r} unknown")
                nfa.add_symbols_transition(src, clipped[target], ids[target])
            elif tag == "report-on-match":
                reporting.append(el.get("id"))
    for ste_id in reporting:
        nfa.add_accepting(ids[ste_id])
    if not reporting:
        raise ValueError("ANML network has no report-on-match element")
    return nfa


def load_anml(path: Union[str, Path], alphabet_size: int = 256) -> Nfa:
    """Read an ANML file into an NFA."""
    return anml_to_nfa(Path(path).read_text(), alphabet_size)


def load_anml_dfa(
    path_or_text: Union[str, Path],
    alphabet_size: int = 256,
    minimize: bool = True,
    max_states: int = 200_000,
) -> Dfa:
    """Read ANML (path or raw text) and compile to a (minimal) DFA."""
    text = (
        path_or_text
        if isinstance(path_or_text, str) and path_or_text.lstrip().startswith("<")
        else Path(path_or_text).read_text()
    )
    nfa = anml_to_nfa(text, alphabet_size)
    return nfa_to_dfa(nfa, minimize=minimize, max_states=max_states)

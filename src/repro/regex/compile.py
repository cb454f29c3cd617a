"""Thompson NFA construction and the regex -> DFA pipeline.

Two entry points matter to the rest of the library:

- :func:`compile_pattern` — one pattern to a DFA, with ``fullmatch`` or
  ``search`` semantics (the latter prefixes an implicit ``.*`` exactly as a
  streaming pattern matcher sees the world).
- :func:`compile_ruleset` — many patterns to a single multi-pattern scan
  DFA, the shape every benchmark FSM in the paper has.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.automata.alphabet import nfa_to_dfa
from repro.automata.dfa import Dfa
from repro.automata.nfa import EPSILON, Nfa
from repro.regex.ast import Alternate, CharClass, Concat, Empty, Node, Repeat
from repro.regex.parser import ParsedPattern, parse

__all__ = ["pattern_to_nfa", "compile_pattern", "compile_ruleset"]


def _clip_class(symbols: frozenset, alphabet_size: int) -> List[int]:
    """Restrict a byte class to the machine alphabet."""
    clipped = sorted(s for s in symbols if 0 <= s < alphabet_size)
    if not clipped:
        raise ValueError(
            f"character class {sorted(symbols)[:4]}... has no symbol below "
            f"alphabet_size={alphabet_size}"
        )
    return clipped


class _Builder:
    """Emits Thompson fragments into a shared :class:`Nfa`."""

    def __init__(self, nfa: Nfa):
        self.nfa = nfa

    def build(self, node: Node) -> Tuple[int, int]:
        """Return ``(entry, exit)`` states of a fresh fragment for ``node``."""
        if isinstance(node, Empty):
            s = self.nfa.add_state()
            t = self.nfa.add_state()
            self.nfa.add_transition(s, EPSILON, t)
            return s, t
        if isinstance(node, CharClass):
            s = self.nfa.add_state()
            t = self.nfa.add_state()
            self.nfa.add_symbols_transition(
                s, _clip_class(node.symbols, self.nfa.alphabet_size), t
            )
            return s, t
        if isinstance(node, Concat):
            entry, exit_ = self.build(node.parts[0])
            for part in node.parts[1:]:
                nxt_entry, nxt_exit = self.build(part)
                self.nfa.add_transition(exit_, EPSILON, nxt_entry)
                exit_ = nxt_exit
            return entry, exit_
        if isinstance(node, Alternate):
            s = self.nfa.add_state()
            t = self.nfa.add_state()
            for option in node.options:
                o_entry, o_exit = self.build(option)
                self.nfa.add_transition(s, EPSILON, o_entry)
                self.nfa.add_transition(o_exit, EPSILON, t)
            return s, t
        if isinstance(node, Repeat):
            return self._build_repeat(node)
        raise TypeError(f"unknown AST node {node!r}")

    def _build_star(self, node: Node) -> Tuple[int, int]:
        s = self.nfa.add_state()
        t = self.nfa.add_state()
        entry, exit_ = self.build(node)
        self.nfa.add_transition(s, EPSILON, entry)
        self.nfa.add_transition(s, EPSILON, t)
        self.nfa.add_transition(exit_, EPSILON, entry)
        self.nfa.add_transition(exit_, EPSILON, t)
        return s, t

    def _build_repeat(self, node: Repeat) -> Tuple[int, int]:
        """Expand bounded repetition by fragment duplication.

        ``{m,}`` is m copies followed by a star; ``{m,n}`` is m mandatory
        copies then ``n - m`` skippable copies.
        """
        pieces: List[Tuple[int, int]] = []
        for _ in range(node.low):
            pieces.append(self.build(node.node))
        if node.high is None:
            pieces.append(self._build_star(node.node))
        else:
            for _ in range(node.high - node.low):
                entry, exit_ = self.build(node.node)
                skip_entry = self.nfa.add_state()
                skip_exit = self.nfa.add_state()
                self.nfa.add_transition(skip_entry, EPSILON, entry)
                self.nfa.add_transition(skip_entry, EPSILON, skip_exit)
                self.nfa.add_transition(exit_, EPSILON, skip_exit)
                pieces.append((skip_entry, skip_exit))
        if not pieces:  # {0} or {0,0}: empty match
            s = self.nfa.add_state()
            t = self.nfa.add_state()
            self.nfa.add_transition(s, EPSILON, t)
            return s, t
        entry, exit_ = pieces[0]
        for nxt_entry, nxt_exit in pieces[1:]:
            self.nfa.add_transition(exit_, EPSILON, nxt_entry)
            exit_ = nxt_exit
        return entry, exit_


def pattern_to_nfa(
    pattern,
    alphabet_size: int = 256,
    mode: str = "search",
) -> Nfa:
    """Compile one pattern to a Thompson NFA.

    Parameters
    ----------
    pattern:
        Pattern string or an already-parsed :class:`ParsedPattern`.
    alphabet_size:
        Machine alphabet; classes are clipped to it.
    mode:
        ``"search"`` prepends an implicit unanchored prefix (unless the
        pattern starts with ``^``), matching scan semantics where the
        accepting state fires at the offset a match *ends*.  ``"fullmatch"``
        accepts exactly the pattern language.
    """
    parsed = pattern if isinstance(pattern, ParsedPattern) else parse(pattern)
    if mode not in ("search", "fullmatch"):
        raise ValueError(f"unknown mode {mode!r}")
    nfa = Nfa(alphabet_size)
    builder = _Builder(nfa)
    entry, exit_ = builder.build(parsed.node)
    if mode == "search" and not parsed.anchored_start:
        # implicit (any symbol)* prefix: a self-looping pre-state
        pre = nfa.add_state()
        nfa.add_symbols_transition(pre, range(alphabet_size), pre)
        nfa.add_transition(pre, EPSILON, entry)
        nfa.set_start(pre)
    else:
        nfa.set_start(entry)
    nfa.add_accepting(exit_)
    return nfa


def compile_pattern(
    pattern,
    alphabet_size: int = 256,
    mode: str = "search",
    minimize: bool = True,
    max_states: Optional[int] = 200_000,
) -> Dfa:
    """Compile one pattern string to a (minimal) DFA."""
    nfa = pattern_to_nfa(pattern, alphabet_size, mode)
    return nfa_to_dfa(nfa, minimize=minimize, max_states=max_states)


def compile_ruleset(
    patterns: Iterable,
    alphabet_size: int = 256,
    minimize: bool = True,
    max_states: Optional[int] = 200_000,
) -> Dfa:
    """Compile a multi-pattern ruleset into one scan DFA.

    This is the FSM shape the paper's benchmarks have: the DFA reports (is
    accepting) at every input offset where any rule's match ends, and keeps
    scanning — accepting states are not absorbing.
    """
    nfas = [pattern_to_nfa(p, alphabet_size, mode="search") for p in patterns]
    if not nfas:
        raise ValueError("empty ruleset")
    combined = Nfa.union(nfas) if len(nfas) > 1 else nfas[0]
    return nfa_to_dfa(combined, minimize=minimize, max_states=max_states)

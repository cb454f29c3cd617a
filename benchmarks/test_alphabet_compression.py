"""Alphabet-compression survey across the suite.

Byte-class compression (RE2-style) shrinks every benchmark's transition
tables dramatically — rulesets only distinguish the bytes their patterns
mention.  Relevant to the AP analogy too: the hardware stores one
match-vector row per symbol, so fewer classes mean smaller state machines.
"""

import statistics

import numpy as np
from conftest import once, write_artifact

from repro.analysis.report import render_table
from repro.automata.alphabet import symbol_classes
from repro.automata.dfa import Dfa
from repro.ingest import admit
from repro.workloads.suite import benchmark_names, load_benchmark


def run_survey():
    rows = []
    for name in benchmark_names():
        instance = load_benchmark(name)
        ratios = []
        classes = []
        verified = 0
        for unit in instance.units:
            class_of = symbol_classes(unit.dfa)
            _, firsts = np.unique(class_of, return_index=True)
            ratios.append(class_of.size / firsts.size)
            classes.append(firsts.size)
            # the machine over classes, run on the class-translated input
            small = Dfa(unit.dfa.transitions[firsts], unit.dfa.start,
                        unit.dfa.accepting)
            word = unit.strings[0]
            if small.run(class_of[admit(word, class_of.size)]) == (
                    unit.dfa.run(word)):
                verified += 1
        rows.append(
            {
                "Benchmark": name,
                "MeanClasses": statistics.fmean(classes),
                "Ratio": statistics.fmean(ratios),
                "Verified": f"{verified}/{len(instance.units)}",
            }
        )
    return rows


def test_alphabet_compression(benchmark):
    rows = once(benchmark, run_survey)
    text = render_table(rows)
    print("\n" + text)
    write_artifact("alphabet_compression", text)

    for row in rows:
        n_fsms = int(row["Verified"].split("/")[1])
        assert row["Verified"] == f"{n_fsms}/{n_fsms}"  # all equivalent
        assert row["Ratio"] >= 2.0, row["Benchmark"]
    # text rulesets over a 256-byte alphabet compress by an order of
    # magnitude on average
    mean_ratio = statistics.fmean(r["Ratio"] for r in rows)
    assert mean_ratio > 8

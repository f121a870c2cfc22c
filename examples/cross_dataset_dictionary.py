#!/usr/bin/env python3
"""Choosing the training set for the shared dictionary (paper Table II).

ZSMILES deliberately uses one *input-independent* dictionary for every library
so that databases can be cut and combined freely.  Which corpus should that
dictionary be trained on?  This example reproduces the paper's cross-dictionary
experiment at a small scale: train one dictionary per dataset (GDB-17-like,
MEDIATE-like, EXSCALATE-like and their MIXED union) and evaluate every
dictionary on every dataset.

Expected outcome (as in Table II): each dictionary is best on its own dataset,
the homogeneous GDB-17 dictionary transfers worst, and the MIXED dictionary is
the best compromise — which is why the paper adopts it as the shared one.

Run with:  python examples/cross_dataset_dictionary.py
"""

from __future__ import annotations

from repro import ZSmilesEngine
from repro.datasets import mixed
from repro.metrics.reporting import ResultTable


def main() -> None:
    corpora = mixed.generate_components(800, seed=5)
    order = ["GDB-17", "MEDIATE", "EXSCALATE", "MIXED"]

    print("training one dictionary per dataset...")
    engines = {
        name: ZSmilesEngine.train(corpora[name], preprocessing=True, lmax=8)
        for name in order
    }

    table = ResultTable(
        title="Cross-dictionary compression ratios (rows: training set, columns: test set)",
        columns=["Train \\ Test", *order, "Avg"],
    )
    averages = {}
    for train in order:
        ratios = [engines[train].compression_ratio(corpora[test]) for test in order]
        averages[train] = sum(ratios) / len(ratios)
        table.add_row(train, *ratios, averages[train])
    print()
    print(table.to_text())

    best = min(averages, key=averages.get)
    print(f"\nbest shared dictionary: trained on {best} "
          f"(average ratio {averages[best]:.3f})")
    print("the paper reaches the same conclusion and ships the MIXED dictionary.")


if __name__ == "__main__":
    main()

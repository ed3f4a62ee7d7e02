"""Constrained market-basket analysis with aggregate constraints.

The constrained-mining setting the paper builds on: item attributes
(prices) and aggregate constraints over them, on a Quest-style
market-basket dataset. The analyst mixes support changes with
anti-monotone / monotone constraint changes; the session classifies each
change and filters or recycles accordingly.

Run:  python examples/market_basket.py
"""

from __future__ import annotations

import random

from repro import (
    AggregateConstraint,
    ConstraintSet,
    ItemTable,
    MiningSession,
    MinSupport,
    QuestParams,
    quest_database,
)


def build_catalog(n_items: int, seed: int = 0) -> ItemTable:
    """A price catalog: most items cheap, a heavy premium tail."""
    rng = random.Random(seed)
    table = ItemTable()
    for item_id in range(n_items):
        price = round(rng.lognormvariate(1.5, 0.8), 2)
        table.add(item_id, f"sku-{item_id:03d}", price=price)
    return table


def main() -> None:
    params = QuestParams(
        n_transactions=2000, n_items=120, avg_transaction_length=9,
        n_patterns=40, avg_pattern_length=4,
    )
    db = quest_database(params, seed=21)
    catalog = build_catalog(params.n_items, seed=21)
    session = MiningSession(db, strategy="mcp", item_table=catalog)

    def show(label: str, patterns) -> None:
        report = session.last_report
        print(f"{label:<46} path={report.path:<8} "
              f"patterns={len(patterns):>6}  t={report.elapsed_seconds:.3f}s")

    # 1. Plain support query: what co-occurs in at least 2% of baskets?
    result = session.mine(ConstraintSet.min_support(0.02))
    show("1. support >= 2%", result)

    # 2. Focus on premium bundles: sum of prices >= 15 (monotone).
    #    Support unchanged + added constraint -> tightened -> filter.
    premium = ConstraintSet.of(
        MinSupport(0.02), AggregateConstraint("sum", "price", ">=", 15.0)
    )
    result = session.mine(premium)
    show("2. ... and sum(price) >= 15 (tighten->filter)", result)

    # 3. Rare premium bundles: drop support to 0.8% (relax -> recycle)
    #    while keeping the price constraint.
    rare_premium = ConstraintSet.of(
        MinSupport(0.008), AggregateConstraint("sum", "price", ">=", 15.0)
    )
    result = session.mine(rare_premium)
    show("3. support >= 0.8%, premium (relax->recycle)", result)

    # 4. Switch to budget bundles: every item under $6 (anti-monotone
    #    max-price constraint) — incomparable change, recycles then
    #    filters.
    budget = ConstraintSet.of(
        MinSupport(0.008), AggregateConstraint("max", "price", "<=", 6.0)
    )
    result = session.mine(budget)
    show("4. budget bundles: max(price) <= 6", result)

    if len(result) > 0:
        print("\nsample budget bundles:")
        for items, support in sorted(
            result.items(), key=lambda kv: (-kv[1], sorted(kv[0]))
        )[:5]:
            names = ", ".join(catalog.names(sorted(items)))
            total = sum(catalog[i].attribute("price") for i in items)
            print(f"  [{names}] support={support}  basket total=${total:.2f}")

    recycles = sum(1 for r in session.history if r.path == "recycle")
    filters = sum(1 for r in session.history if r.path == "filter")
    print(f"\n4 analyst queries -> 1 initial mine, {filters} filter, "
          f"{recycles} recycle — no from-scratch reruns.")


if __name__ == "__main__":
    main()

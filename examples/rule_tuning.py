"""Interactive association-rule tuning on top of recycling.

Rules are derived from frequent patterns alone, so a rule-tuning loop —
vary the support, vary the confidence, focus on a target consequent —
only ever pays the pattern-mining cost, and the session minimizes that
by filtering or recycling between iterations. Confidence changes are
free (re-derive from cached patterns); support relaxations recycle.

Run:  python examples/rule_tuning.py
"""

from __future__ import annotations

from repro import (
    MiningSession,
    QuestParams,
    filter_rules,
    generate_rules,
    quest_database,
)


def main() -> None:
    db = quest_database(
        QuestParams(n_transactions=2500, n_items=90, avg_transaction_length=8,
                    n_patterns=35, avg_pattern_length=4),
        seed=13,
    )
    session = MiningSession(db, strategy="mcp")

    print(f"dataset: {len(db)} baskets, {db.item_count()} items\n")
    print(f"{'query':<44} {'path':<8} {'patterns':>8} {'rules':>6}")

    def derive(min_confidence: float) -> list:
        patterns = session.exported_patterns()
        return generate_rules(patterns, len(db), min_confidence=min_confidence)

    # Round 1: support 2%, confidence 0.6.
    session.mine(0.02)
    rules = derive(0.6)
    print(f"{'1. support 2%, confidence 0.6':<44} "
          f"{session.last_report.path:<8} "
          f"{session.last_report.pattern_count:>8} {len(rules):>6}")

    # Round 2: confidence alone changes -> no mining at all.
    rules = derive(0.8)
    print(f"{'2. confidence 0.8 (no mining needed)':<44} {'cached':<8} "
          f"{session.last_report.pattern_count:>8} {len(rules):>6}")

    # Round 3: too few rules; relax support to 0.6% -> recycle path.
    session.mine(0.006)
    rules = derive(0.8)
    print(f"{'3. support 0.6%, confidence 0.8':<44} "
          f"{session.last_report.path:<8} "
          f"{session.last_report.pattern_count:>8} {len(rules):>6}")

    # Round 4: focus on high-lift rules.
    strong = filter_rules(rules, min_lift=3.0)
    print(f"{'4. ... with lift >= 3 (post-filter)':<44} {'cached':<8} "
          f"{session.last_report.pattern_count:>8} {len(strong):>6}")

    print("\ntop rules by confidence:")
    for rule in strong[:6]:
        print(f"  {rule}")

    paths = [r.path for r in session.history]
    print(f"\nmining paths taken: {paths} — confidence and lift tuning "
          "never touched the database.")


if __name__ == "__main__":
    main()

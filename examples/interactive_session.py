"""The paper's motivating scenario: an analyst iterating on constraints.

Section 1 of the paper: a user sets the minimum support to 5%, inspects
the result, finds it too coarse, lowers it to 3%, then keeps refining —
and a conventional system re-mines from scratch every time.
:class:`repro.MiningSession` runs the same loop but picks the cheapest
sound path per iteration: *filter* when the constraints only tightened,
*recycle* (compress + re-mine) when they relaxed.

Run:  python examples/interactive_session.py
"""

from __future__ import annotations

from repro import MiningSession, weather_like


def main() -> None:
    db = weather_like()
    session = MiningSession(db, strategy="mcp")

    # The analyst's journey, in relative supports:
    #   5%  - first look
    #   8%  - too many patterns, tighten (filter path: instant)
    #   3%  - too few now, relax (recycle path)
    #   2%  - keep digging (recycle again, reusing the 3% patterns)
    #   4%  - back up for the report (filter path again)
    journey = (0.05, 0.08, 0.03, 0.02, 0.04)

    print(f"dataset: {len(db)} tuples, {db.item_count()} items\n")
    print(f"{'step':>4}  {'support':>8}  {'path':>8}  {'patterns':>9}  {'seconds':>8}")
    for support in journey:
        session.mine(support)
        report = session.last_report
        print(
            f"{report.index:>4}  {support:>8.0%}  {report.path:>8}  "
            f"{report.pattern_count:>9}  {report.elapsed_seconds:>8.3f}"
        )

    filter_steps = [r for r in session.history if r.path == "filter"]
    recycle_steps = [r for r in session.history if r.path == "recycle"]
    print(
        f"\n{len(filter_steps)} filter steps (near-free) and "
        f"{len(recycle_steps)} recycle steps; tightening never re-mines, "
        "and relaxing reuses every pattern the session already paid for."
    )

    # Multi-user recycling (Section 2): the session's pattern cache can
    # be exported for a colleague working on the same data.
    colleague = MiningSession(db)
    colleague.seed_patterns(
        session.exported_patterns(),
        absolute_support=session.last_report.absolute_support,
    )
    colleague.mine(0.015)
    report = colleague.last_report
    print(
        f"\ncolleague's first query (1.5% support) took the "
        f"'{report.path}' path straight away: {report.pattern_count} patterns "
        f"in {report.elapsed_seconds:.3f}s — no initial mining run needed."
    )


if __name__ == "__main__":
    main()

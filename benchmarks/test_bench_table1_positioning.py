"""E-T1 — Table 1: positioning of E2C among simulators (§2).

Regenerates the feature matrix; the E2C row is introspected live from this
library, so this test fails if a claimed capability disappears.
"""

from repro.positioning import introspect_e2c, positioning_table, render_table


def test_bench_table1(results_dir):
    table = positioning_table()

    text = render_table()
    (results_dir / "table1_positioning.txt").write_text(
        text + "\n", encoding="utf-8"
    )

    # Paper shape: six simulators; E2C is the only row with every feature.
    assert len(table) == 6
    e2c = introspect_e2c()
    assert (e2c.language, e2c.gui, e2c.heterogeneous, e2c.workload_generator) == (
        "Python", "yes", "yes", "yes",
    )
    full_rows = [
        e for e in table
        if e.gui == "yes" and e.heterogeneous == "yes"
        and e.workload_generator == "yes"
    ]
    assert [e.name for e in full_rows] == ["E2C"]

//! The paper's quantitative *shapes*, asserted end-to-end on scaled-down
//! workloads (the full-scale numbers live in EXPERIMENTS.md and come from
//! `repro --full`):
//!
//! * Fig. 8: DLV query counts grow with N, sublinearly.
//! * Fig. 9: the leaked proportion decays roughly linearly in log N.
//! * Table 5: TXT overhead ratios — traffic% < queries% < time% — and all
//!   ratios grow with N.
//! * §5.3: the overwhelming majority of DLV queries provide no validation
//!   utility.

use lookaside::engine::Executor;
use lookaside::experiments::{fig11, fig8_9, table4, table5, utility};

#[test]
fn fig8_counts_grow_sublinearly() {
    let points = fig8_9(&Executor::default(), &[100, 1_000], 11);
    let (small, large) = (&points[0], &points[1]);
    assert!(large.dlv_queries > small.dlv_queries);
    // Sublinear: 10× domains must give < 10× DLV queries.
    assert!(
        (large.dlv_queries as f64) < 10.0 * small.dlv_queries as f64,
        "{} vs {}",
        large.dlv_queries,
        small.dlv_queries
    );
    assert!(large.suppressed > small.suppressed, "negative caching works harder at scale");
}

#[test]
fn fig9_proportion_decays_linearly_in_log_n() {
    let points = fig8_9(&Executor::default(), &[40, 400, 4_000], 11);
    let p: Vec<f64> = points.iter().map(|x| x.proportion).collect();
    assert!(p[0] > p[1] && p[1] > p[2], "decay: {p:?}");
    // Near-constant decrement per decade (the Fig. 9 "linear decay" in
    // log-x), within a loose tolerance.
    let d1 = p[0] - p[1];
    let d2 = p[1] - p[2];
    assert!((d1 - d2).abs() < 0.6 * d1.max(d2), "decrements {d1:.3} vs {d2:.3}");
    // Anchor: ≈84 % at N=100 (paper) — we accept a ±10 pt band.
    assert!((0.70..0.92).contains(&p[0]), "top-100 proportion {}", p[0]);
}

#[test]
fn table5_ratio_ordering_and_growth() {
    let rows = table5(&[100, 1_000], 7);
    for row in &rows {
        assert!(
            row.traffic_ratio() < row.query_ratio(),
            "TXT messages are small: traffic% < queries%"
        );
        assert!(
            row.query_ratio() < row.time_ratio(),
            "TXT probes hit far SLD servers: queries% < time%"
        );
    }
    assert!(rows[1].query_ratio() > rows[0].query_ratio(), "ratios grow with N");
    assert!(rows[1].time_ratio() > rows[0].time_ratio());
}

#[test]
fn table4_per_domain_rates_fall_with_caching() {
    let rows = table4(&[100, 1_000], 5);
    let per_domain = |r: &lookaside::experiments::Table4Row| r.total() as f64 / r.n as f64;
    assert!(
        per_domain(&rows[1]) < per_domain(&rows[0]),
        "infrastructure caching amortises: {:.2} vs {:.2}",
        per_domain(&rows[1]),
        per_domain(&rows[0])
    );
    // Column sanity: A dominates, DS ≈ 1–2.5 per domain, PTR is rare.
    let r = &rows[0];
    assert!(r.a > r.aaaa && r.a > r.ds);
    assert!(r.ds as f64 / r.n as f64 > 0.8 && (r.ds as f64 / r.n as f64) < 2.5);
    assert!(r.ptr < r.n as u64 / 10);
}

#[test]
fn utility_fraction_matches_section_5_3() {
    let report = utility(1_200, 13);
    // Paper: ≈98.8 % of DLV queries are leakage. Accept ≥95 %.
    assert!(report.leak_fraction() > 0.95, "leak fraction {}", report.leak_fraction());
    assert!(report.case1 > 0, "deposited islands do get served");
}

#[test]
fn fig11_cost_ordering_matches_paper() {
    let rows = fig11(200, 17);
    let get = |l: &str| rows.iter().find(|r| r.remedy == l).unwrap();
    let (dlv, txt, zbit) = (get("DLV"), get("TXT"), get("Z-bit"));
    // Fig. 11a: TXT has the highest response time; Z-bit is minimal.
    assert!(txt.seconds > dlv.seconds);
    assert!(zbit.seconds <= dlv.seconds);
    // Fig. 11c: TXT issues the most queries.
    assert!(txt.queries > dlv.queries && txt.queries > zbit.queries);
    // Both signaling remedies eliminate Case-2 leaks entirely.
    assert_eq!(txt.leaks, 0);
    assert_eq!(zbit.leaks, 0);
    assert!(dlv.leaks > 100);
}

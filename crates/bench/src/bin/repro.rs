//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--full] [--jobs N] [--checkpoint P|--resume P] [EXPERIMENT|all]
//! ```
//!
//! `EXPERIMENT` is one of these sections, listed in the order `all` (the
//! default) runs them; names joined by `/` print the same section:
//!
//! ```text
//! table1 table2 table3 table4 table5/fig10 fig8/fig9 order utility fig11
//! fig12 nsec3 qmin vantage deployment tlds trace survey dict attacks
//! chaos byzantine lifecycle farm
//! ```
//!
//! The command line is the whole configuration; `repro` reads no
//! environment variables. An unknown flag or experiment name, `--jobs 0`,
//! or a journal flag on a section that keeps no journal prints the usage
//! line on stderr and exits with status 2.
//!
//! Without `--full`, dataset sweeps stop at 10k domains (seconds); with it
//! they include the 100k and 1M points (minutes).
//!
//! `--jobs N` sets the worker-pool size the experiment engine shards
//! sweeps across (default: the machine's available parallelism). The
//! output is byte-identical for every N — parallelism only changes
//! wall-clock time, never results.
//!
//! Every experiment folds packets into its accumulators as the network
//! emits them instead of capturing and classifying afterwards, so a
//! sweep holds O(shards) memory.
//!
//! `--checkpoint P` / `--resume P` journal every completed `fig12` window
//! shard to the CRC-checked file `P` (so they apply to `fig12` and `all`
//! only); a run killed mid-sweep resumes from the journal's valid prefix
//! and produces byte-identical output. A journal that is refused (not a
//! journal, or written by a different run) or cannot be written prints
//! `repro: fig12 journal P: <why>` on stderr and exits with status 3; a
//! refused file is left untouched. A resumed run notes its coverage,
//! `coverage N/N shards (K resumed)`, on stderr.
//!
//! A sweep with a shard that panicked prints its per-shard coverage table
//! on stderr and aborts with status 101.

use std::env;
use std::path::Path;
use std::process::{self, ExitCode};

use lookaside::attacks;
use lookaside::byzantine::{byzantine_sweep, ByzantineConfig};
use lookaside::chaos::{chaos_outage, ChaosConfig};
use lookaside::engine::Executor;
use lookaside::experiments::{
    deployment_sweep, fig11, fig12, fig12_checkpointed, fig8_9, nsec3_tradeoff, order_matters,
    qmin_exposure, table3, table4, table5, tld_breakdown, trace_replay, utility, vantage_sweep,
};
use lookaside::farm::{Farm, FarmConfig, TopologyReport};
use lookaside::lifecycle::{lifecycle_sweep, LifecycleConfig};
use lookaside::report::{megabytes, pct, render_table};
use lookaside::workload;
use lookaside_resolver::{environments, InstallMethod};

/// A printable section: the names it answers to, and how to print it
/// under the parsed command line.
type Section = (&'static [&'static str], fn(&Args));

/// Every section `repro` prints, in the order `all` runs them. Dispatch,
/// the usage line, and the header doc all follow this table.
const SECTIONS: &[Section] = &[
    (&["table1"], |_| print_table1()),
    (&["table2"], |_| print_table2()),
    (&["table3"], |_| print_table3()),
    (&["table4"], |a| print_table4(&table_sizes(a.full))),
    (&["table5", "fig10"], |a| print_table5_fig10(&table_sizes(a.full))),
    (&["fig8", "fig9"], |a| print_fig8_9(&a.exec, &sweep_sizes(a.full))),
    (&["order"], |_| print_order()),
    (&["utility"], |a| print_utility(if a.full { 10_000 } else { 2_000 })),
    (&["fig11"], |a| print_fig11(if a.full { 10_000 } else { 1_000 })),
    (&["fig12"], |a| print_fig12(a, if a.full { 1 } else { 500 })),
    (&["nsec3"], |a| print_nsec3(if a.full { 5_000 } else { 500 })),
    (&["qmin"], |a| print_qmin(if a.full { 2_000 } else { 300 })),
    (&["vantage"], |a| print_vantage(&a.exec, if a.full { 2_000 } else { 300 })),
    (&["deployment"], |a| print_deployment(&a.exec, if a.full { 5_000 } else { 800 })),
    (&["tlds"], |a| print_tlds(if a.full { 5_000 } else { 800 })),
    (&["trace"], |a| print_trace(if a.full { (50_000, 5_000) } else { (3_000, 500) })),
    (&["survey"], |_| print_survey()),
    (&["dict"], |_| print_dictionary()),
    (&["attacks"], |_| print_attacks()),
    (&["chaos"], |a| print_chaos(&a.exec, if a.full { 120 } else { 25 })),
    (&["byzantine"], |a| print_byzantine(&a.exec, if a.full { 60 } else { 15 })),
    (&["lifecycle"], |a| print_lifecycle(&a.exec, if a.full { 10 } else { 5 })),
    (&["farm"], |a| print_farm(&a.exec, if a.full { 500 } else { 2_000 })),
];

/// The parsed command line: everything a run is configured by.
struct Args {
    full: bool,
    /// The pool every sweep runs on: `--jobs` workers.
    exec: Executor,
    /// The Fig. 12 window journal (`--checkpoint` / `--resume`).
    journal: Option<String>,
    /// The section to print; `None` means `all`.
    section: Option<usize>,
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("repro: {problem}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    for (i, (_, print)) in SECTIONS.iter().enumerate() {
        if args.section.is_none_or(|wanted| wanted == i) {
            print(&args);
        }
    }
    ExitCode::SUCCESS
}

/// The one-line usage summary printed with every command-line error.
fn usage() -> String {
    let names: Vec<&str> = SECTIONS.iter().flat_map(|(names, _)| names.iter().copied()).collect();
    format!(
        "usage: repro [--full] [--jobs N] [--checkpoint P|--resume P] [all|{}]",
        names.join("|")
    )
}

/// Parses the command line, accepting both `--flag VALUE` and
/// `--flag=VALUE` for the flags that take a value. Anything unknown, or
/// anything the run would silently ignore, is an error.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut full = false;
    let mut jobs = None;
    let mut journal = None;
    let mut named: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) if flag.starts_with("--") => (flag, Some(value)),
            _ => (arg.as_str(), None),
        };
        let mut value = || {
            inline
                .map(str::to_string)
                .or_else(|| it.next().cloned())
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--full" if inline.is_none() => full = true,
            "--jobs" => {
                let value = value()?;
                match value.parse() {
                    Ok(n) if n > 0 => jobs = Some(n),
                    _ => return Err(format!("--jobs needs a positive number, got {value:?}")),
                }
            }
            "--checkpoint" | "--resume" => journal = Some(value()?),
            _ if flag.starts_with('-') => return Err(format!("unknown flag {arg:?}")),
            _ => {
                if let Some(first) = named.replace(arg) {
                    return Err(format!("one experiment at a time, got {first:?} and {arg:?}"));
                }
            }
        }
    }
    let section = match named {
        None | Some("all") => None,
        Some(name) => Some(
            SECTIONS
                .iter()
                .position(|(names, _)| names.contains(&name))
                .ok_or_else(|| format!("unknown experiment {name:?}"))?,
        ),
    };
    if journal.is_some() && section.is_some_and(|i| SECTIONS[i].0 != ["fig12"]) {
        return Err("--checkpoint/--resume journal fig12 only: name fig12 or all".to_string());
    }
    let exec = jobs.map_or_else(Executor::default, Executor::new);
    Ok(Args { full, exec, journal, section })
}

/// Dataset sizes for Tables 4 and 5.
fn table_sizes(full: bool) -> Vec<usize> {
    if full {
        lookaside_bench::PAPER_SIZES.to_vec()
    } else {
        lookaside_bench::QUICK_SIZES.to_vec()
    }
}

/// Dataset sizes for the Figs. 8–9 sweep.
fn sweep_sizes(full: bool) -> Vec<usize> {
    if full {
        let mut sizes = lookaside_bench::SWEEP_SIZES.to_vec();
        sizes.push(1_000_000);
        sizes
    } else {
        lookaside_bench::QUICK_SIZES.to_vec()
    }
}

fn print_table1() {
    println!("\n== Table 1: resolver versions per environment ==");
    let rows: Vec<Vec<String>> = environments()
        .iter()
        .map(|e| {
            vec![
                e.os.to_string(),
                format!("{:?}", e.software),
                e.package_version.to_string(),
                e.manual_version.to_string(),
            ]
        })
        .collect();
    print!("{}", render_table(&["OS", "software", "package (P)", "manual (M)"], &rows));
}

fn print_table2() {
    println!("\n== Table 2: default configuration per install method ==");
    let rows: Vec<Vec<String>> = InstallMethod::ALL
        .iter()
        .map(|m| {
            let c = m.bind_config();
            vec![
                m.label().to_string(),
                if c.dnssec_enable { "Yes" } else { "No" }.into(),
                format!("{:?}", c.validation),
                format!("{:?}", c.lookaside),
                if c.root_anchor_included { "Yes" } else { "N/A" }.into(),
            ]
        })
        .collect();
    print!("{}", render_table(&["install", "DNSSEC", "validation", "DLV", "trust anchor"], &rows));
}

fn print_table3() {
    println!("\n== Table 3: do *secured* domains leak to DLV? (huque45) ==");
    let rows: Vec<Vec<String>> = table3(3)
        .iter()
        .map(|r| {
            vec![
                r.method.clone(),
                if r.secured_leaked { "Yes" } else { "No" }.into(),
                r.islands_to_dlv.to_string(),
            ]
        })
        .collect();
    print!("{}", render_table(&["install", "secured leaked", "islands to DLV"], &rows));
    println!(
        "(paper: apt-get No, apt-get\u{2020} Yes, yum No, manual Yes; 5 islands under correct config)"
    );
}

fn print_table4(sizes: &[usize]) {
    println!("\n== Table 4: queries by type ==");
    let rows: Vec<Vec<String>> = table4(sizes, 5)
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.a.to_string(),
                r.aaaa.to_string(),
                r.dnskey.to_string(),
                r.ds.to_string(),
                r.ns.to_string(),
                r.ptr.to_string(),
                r.total().to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(&["#domains", "A", "AAAA", "DNSKEY", "DS", "NS", "PTR", "total"], &rows)
    );
    println!("(paper @100: A 467, AAAA 243, DNSKEY 32, DS 221, NS 36, PTR 2, total 1001)");
}

fn print_table5_fig10(sizes: &[usize]) {
    println!("\n== Table 5 / Fig. 10: TXT-remedy overhead ==");
    let rows: Vec<Vec<String>> = table5(sizes, 7)
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                format!("{:.2}", r.base_seconds),
                format!("{:.2}", r.overhead_seconds),
                pct(r.time_ratio()),
                format!("{:.2}", r.base_mb),
                format!("{:.2}", r.overhead_mb),
                pct(r.traffic_ratio()),
                r.base_queries.to_string(),
                r.overhead_queries.to_string(),
                pct(r.query_ratio()),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "#domains",
                "time base(s)",
                "time ovh(s)",
                "time%",
                "MB base",
                "MB ovh",
                "MB%",
                "queries base",
                "queries ovh",
                "queries%",
            ],
            &rows
        )
    );
    println!("(paper ratios: time 18.7\u{2192}29.2%, traffic 6.7\u{2192}10.0%, queries 10.8\u{2192}19.7%)");
}

fn print_fig8_9(exec: &Executor, sizes: &[usize]) {
    println!("\n== Figs. 8\u{2013}9: DLV queries and leaked proportion ==");
    print!("{}", lookaside::report::fig8_9_table(&fig8_9(exec, sizes, 11)));
    println!("(paper: 84% @100 decaying ~linearly in log N to 6.8% @1M)");
}

fn print_order() {
    println!("\n== \u{a7}5.1 order matters: shuffled top-100 ==");
    let rows: Vec<Vec<String>> = order_matters(100, &[1, 2, 3], 19)
        .iter()
        .map(|(seed, prop)| vec![format!("shuffle {seed}"), pct(*prop)])
        .collect();
    print!("{}", render_table(&["trial", "leaked %"], &rows));
    println!("(paper: 82%, 84%, 77% across trials)");
}

fn print_utility(n: usize) {
    println!("\n== \u{a7}5.3 validation utility (misconfigured profile, top-{n}) ==");
    let report = utility(n, 13);
    let rows = vec![vec![
        report.dlv_queries.to_string(),
        report.case1.to_string(),
        report.case2.to_string(),
        pct(report.leak_fraction()),
    ]];
    print!("{}", render_table(&["DLV queries", "No error", "No such name", "leak %"], &rows));
    println!("(paper: \u{2248}98.8% of DLV queries provide no validation utility)");
}

fn print_fig11(n: usize) {
    println!("\n== Fig. 11: remedies compared (top-{n}) ==");
    let rows: Vec<Vec<String>> = fig11(n, 17)
        .iter()
        .map(|r| {
            vec![
                r.remedy.clone(),
                format!("{:.2}", r.seconds),
                format!("{:.2}", r.megabytes),
                r.queries.to_string(),
                r.leaks.to_string(),
            ]
        })
        .collect();
    print!("{}", render_table(&["remedy", "time (s)", "MB", "queries", "case-2 leaks"], &rows));
    println!("(paper: TXT highest overhead, Z-bit minimal; both eliminate leaks)");
}

fn print_fig12(args: &Args, scale: u64) {
    println!("\n== Fig. 12: DITL trace-driven overhead (sampling 1/{scale}) ==");
    let data = match &args.journal {
        None => fig12(&args.exec, 23, scale),
        // --checkpoint and --resume are the same mechanism: the journal
        // loader folds back whatever valid prefix the file holds (none,
        // for a fresh path) and the sweep continues from there.
        Some(path) => {
            fig12_checkpointed(&args.exec, 23, scale, Path::new(path)).unwrap_or_else(|err| {
                eprintln!("repro: fig12 journal {path}: {err}");
                process::exit(3)
            })
        }
    };
    let minutes = data.per_minute.len();
    let sample = [0usize, minutes / 4, minutes / 2, 3 * minutes / 4, minutes - 1];
    let rows: Vec<Vec<String>> = sample
        .iter()
        .map(|&m| {
            vec![
                m.to_string(),
                data.per_minute[m].to_string(),
                data.cumulative_queries[m].to_string(),
                megabytes(data.cumulative_baseline_bytes[m]),
                megabytes(data.cumulative_overhead_bytes[m]),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(&["minute", "queries/min", "cum queries", "cum base MB", "cum ovh MB"], &rows)
    );
    println!(
        "total overhead: {} MB over 7h = {:.3} Mbps (paper: \u{2248}1.2 GB, 0.38 Mbps)",
        megabytes(*data.cumulative_overhead_bytes.last().unwrap()),
        data.overhead_mbps
    );
}

fn print_nsec3(n: usize) {
    println!("\n== \u{a7}7.3 NSEC vs NSEC3 registry (top-{n}) ==");
    let rows: Vec<Vec<String>> = nsec3_tradeoff(n, 29)
        .iter()
        .map(|r| {
            vec![
                r.denial.clone(),
                r.dlv_queries.to_string(),
                r.suppressed.to_string(),
                r.leaks.to_string(),
            ]
        })
        .collect();
    print!("{}", render_table(&["denial", "DLV queries", "suppressed", "case-2 leaks"], &rows));
    println!(
        "(paper \u{a7}7.3: without aggressive negative caching, every query \
         triggers a DLV query — NSEC3 trades enumeration resistance for leakage)"
    );
}

fn print_qmin(n: usize) {
    println!("\n== RFC 7816 extension: QNAME minimisation vs DLV leakage (top-{n}) ==");
    let rows: Vec<Vec<String>> = qmin_exposure(n, 37)
        .iter()
        .map(|r| {
            vec![
                if r.minimized { "on" } else { "off" }.to_string(),
                r.root_full_names.to_string(),
                r.tld_full_names.to_string(),
                r.dlv_leaks.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &["qmin", "names at root", "sub-SLD names at TLDs", "DLV case-2 leaks"],
            &rows
        )
    );
    println!("(minimisation shields on-path servers; DLV leaks are untouched — the look-aside query *is* the name)");
}

fn print_vantage(exec: &Executor, n: usize) {
    println!("\n== \u{a7}7.1 vantage generality: same findings from every vantage (top-{n}) ==");
    let rows: Vec<Vec<String>> = vantage_sweep(exec, n, 43)
        .iter()
        .map(|r| {
            vec![
                r.vantage.clone(),
                r.leaks.to_string(),
                r.distinct_leaked.to_string(),
                format!("{:.2}", r.seconds),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(&["vantage", "case-2 leaks", "distinct leaked", "sim time (s)"], &rows)
    );
    println!("(paper \u{a7}7.1: \"results among different platforms remain the same\")");
}

fn print_deployment(exec: &Executor, n: usize) {
    println!("\n== \u{a7}7.1 deployment sweep: leak share vs DLV deposit density (top-{n}) ==");
    let rows: Vec<Vec<String>> = deployment_sweep(exec, n, &[0, 100, 300, 600, 1000], 39)
        .iter()
        .map(|r| {
            vec![
                format!("{:.1}%", f64::from(r.deposited_given_island_milli) / 10.0),
                r.case1.to_string(),
                r.case2.to_string(),
                pct(r.leak_fraction),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(&["islands depositing", "No error", "No such name", "leak %"], &rows)
    );
    println!(
        "(paper \u{a7}7.1: findings become less significant as more domains populate the registry)"
    );
}

fn print_tlds(n: usize) {
    println!("\n== per-TLD leakage breakdown (top-{n}) ==");
    let rows: Vec<Vec<String>> = tld_breakdown(n, 49)
        .iter()
        .map(|r| {
            vec![
                r.tld.to_string(),
                if r.tld_signed { "signed" } else { "unsigned" }.to_string(),
                r.domains.to_string(),
                r.leaked.to_string(),
                pct(r.fraction()),
                r.secure_children_leaked.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(&["TLD", "zone", "domains", "leaked", "leak %", "secure leaked"], &rows)
    );
    println!("(secure children — signed with DS — never leak; unsigned TLDs cannot have any)");
}

fn print_trace(params: (usize, usize)) {
    let (draws, support) = params;
    println!(
        "\n== trace replay: {draws} Zipf stub queries over top-{support} (Fig. 12 cross-check) =="
    );
    let rows: Vec<Vec<String>> = trace_replay(draws, support, 47)
        .iter()
        .map(|r| {
            vec![
                r.remedy.clone(),
                r.stub_queries.to_string(),
                r.distinct_domains.to_string(),
                r.upstream_queries.to_string(),
                format!("{:.2}", r.upstream_per_query),
                r.txt_probes.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &["remedy", "stub q", "distinct", "upstream q", "upstream/q", "TXT probes"],
            &rows
        )
    );
    println!("(TXT probes track distinct zones, not query volume — the Fig. 12 cache assumption)");
}

fn print_survey() {
    println!("\n== \u{a7}5.2 operator survey (DNS-OARC 2015) ==");
    let s = workload::survey();
    let rows = vec![
        vec![
            "package-installer defaults".to_string(),
            s.package_defaults.to_string(),
            format!("{:.1}%", s.pct(s.package_defaults)),
        ],
        vec![
            "manual-install defaults".to_string(),
            s.manual_defaults.to_string(),
            format!("{:.1}%", s.pct(s.manual_defaults)),
        ],
        vec![
            "own configuration".to_string(),
            s.own_config.to_string(),
            format!("{:.1}%", s.pct(s.own_config)),
        ],
        vec!["use ISC DLV".to_string(), s.isc_dlv.to_string(), format!("{:.1}%", s.pct(s.isc_dlv))],
    ];
    print!("{}", render_table(&["answer", "count", "share"], &rows));
}

fn print_dictionary() {
    println!("\n== \u{a7}6.2.4 dictionary attack on hashed DLV ==");
    let pop = workload::DomainPopulation::new(workload::PopulationParams {
        size: 10_000,
        ..workload::PopulationParams::default()
    });
    let full: Vec<_> = (1..=10_000).map(|r| pop.domain(r)).collect();
    let dnssec_only: Vec<_> =
        (1..=10_000).filter(|&r| pop.attributes(r).signed).map(|r| pop.domain(r)).collect();
    let outcome_full = attacks::dictionary_attack(500, 35, full);
    let outcome_small = attacks::dictionary_attack(500, 35, dnssec_only);
    let rows = vec![
        vec![
            "full population".to_string(),
            outcome_full.dictionary_size.to_string(),
            outcome_full.observed.to_string(),
            outcome_full.recovered.to_string(),
            pct(outcome_full.recovery_rate()),
        ],
        vec![
            "DNSSEC-only".to_string(),
            outcome_small.dictionary_size.to_string(),
            outcome_small.observed.to_string(),
            outcome_small.recovered.to_string(),
            pct(outcome_small.recovery_rate()),
        ],
    ];
    print!("{}", render_table(&["dictionary", "size", "observed", "recovered", "rate"], &rows));
    println!(
        "(paper: full-space dictionaries are impractical at 350M+ names; a DNSSEC-only \
         dictionary shrinks the search but misses non-DNSSEC leaks)"
    );
}

fn print_chaos(exec: &Executor, n: usize) {
    println!("\n== \u{a7}7.3.2 chaos sweep: DLV-registry outage vs leakage amplification ({n} queries/cell) ==");
    let rows: Vec<Vec<String>> = chaos_outage(exec, &ChaosConfig::quick(n))
        .iter()
        .map(|p| {
            vec![
                p.profile.label().to_string(),
                p.outage.label(),
                p.dlv_packets.to_string(),
                format!("{:.2}", p.dlv_per_query),
                pct(p.success_rate),
                format!("{:.1}", p.p50_ms),
                format!("{:.1}", p.p95_ms),
                p.retransmissions.to_string(),
                p.timeouts.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "profile",
                "outage",
                "DLV pkts",
                "DLV/query",
                "answered",
                "p50 ms",
                "p95 ms",
                "rexmit",
                "timeouts",
            ],
            &rows
        )
    );
    println!(
        "(retries multiply on-wire exposure as the registry degrades; the RFC 2308 \
         SERVFAIL cache collapses it by holding the dead zone down)"
    );
}

fn print_byzantine(exec: &Executor, n: usize) {
    println!(
        "\n== Byzantine sweep: data-plane adversaries \u{d7} validator hardening ({n} queries/cell) =="
    );
    let rows: Vec<Vec<String>> = byzantine_sweep(exec, &ByzantineConfig::quick(n))
        .iter()
        .map(|p| {
            vec![
                p.profile.label().to_string(),
                p.adversary.label(),
                p.dlv_packets.to_string(),
                format!("{:.2}", p.dlv_per_query),
                pct(p.availability),
                p.dlv_secure.to_string(),
                p.stale_serves.to_string(),
                p.bad_cache_hits.to_string(),
                format!("{}/{}", p.spoofs_accepted, p.spoofs_discarded),
                p.malformed_retries.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "hardening",
                "adversary",
                "DLV pkts",
                "DLV/query",
                "avail",
                "DLV-secure",
                "stale",
                "BAD hits",
                "spoof a/d",
                "malformed",
            ],
            &rows
        )
    );
    println!(
        "(wrong answers leak more than lost ones: corruption and truncation retrigger \
         transmissions, while hardening preserves availability through every decommission stage)"
    );
}

fn print_lifecycle(exec: &Executor, n: usize) {
    println!("\n== key-lifecycle sweep: rollovers, expiry storms, RFC 5011 ({n} queries/event) ==");
    let rows: Vec<Vec<String>> = lifecycle_sweep(exec, &LifecycleConfig::quick(n))
        .iter()
        .flat_map(|p| {
            p.events.iter().map(|e| {
                vec![
                    p.scenario.label().to_string(),
                    e.at_secs.to_string(),
                    e.secure.to_string(),
                    e.insecure.to_string(),
                    e.bogus.to_string(),
                    e.indeterminate.to_string(),
                    e.errors.to_string(),
                    e.expired_rrsig_bogus.to_string(),
                    e.missing_anchor.to_string(),
                    e.dlv_queries.to_string(),
                    e.case2_leaks.to_string(),
                ]
            })
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "scenario",
                "t (s)",
                "secure",
                "insec",
                "bogus",
                "indet",
                "err",
                "expired",
                "no-anchor",
                "DLV q",
                "case-2",
            ],
            &rows
        )
    );
    println!(
        "(a missed KSK rollover strands the resolver anchorless: validation collapses to \
         the look-aside walk and every fresh name leaks to the registry until an anchor \
         is re-installed out of band)"
    );
}

fn print_attacks() {
    println!("\n== \u{a7}6.2.3 signaling attacks ==");
    let z = attacks::zbit_flip_attack(200, 31);
    let t = attacks::txt_poison_attack(200, 33);
    let rows = vec![
        vec![
            "Z-bit flip".to_string(),
            z.leaks_with_remedy.to_string(),
            z.leaks_under_attack.to_string(),
        ],
        vec![
            "TXT poison".to_string(),
            t.leaks_with_remedy.to_string(),
            t.leaks_under_attack.to_string(),
        ],
    ];
    print!("{}", render_table(&["attack", "leaks (remedy)", "leaks (attacked)"], &rows));
}

fn farm_rows(reports: &[TopologyReport]) -> Vec<Vec<String>> {
    reports
        .iter()
        .map(|r| {
            vec![
                r.topology.label().to_string(),
                r.resolvers.to_string(),
                r.active_clients.to_string(),
                r.stub_queries.to_string(),
                r.upstream_misses.to_string(),
                r.dlv_queries.to_string(),
                r.case1.to_string(),
                r.case2.to_string(),
                r.linkable_case2.to_string(),
                r.leaked_clients.to_string(),
                r.max_client_case2.to_string(),
                format!("{:.4}", r.leaks_per_client()),
                pct(r.leaked_share()),
                r.content_exposed.to_string(),
            ]
        })
        .collect()
}

const FARM_HEADERS: [&str; 14] = [
    "topology",
    "resolvers",
    "clients",
    "stub q",
    "misses",
    "DLV q",
    "case-1",
    "case-2",
    "linkable",
    "leaked cl",
    "max/cl",
    "leak/cl",
    "leaked %",
    "content-exp",
];

fn print_farm(exec: &Executor, ditl_scale: u64) {
    let farm = Farm::new(FarmConfig::paper_scale());
    let clients = farm.config().plane.clients;
    let resolvers = farm.config().resolvers;

    println!(
        "\n== resolver farm: {clients} stub clients, {resolvers} resolvers, topology sweep =="
    );
    print!("{}", render_table(&FARM_HEADERS, &farm_rows(&farm.sweep(exec))));
    println!(
        "(aggregation is the accidental remedy: a shared cache dedupes case-2 names across the \
         whole client base, an ODoH split leaves the registry's view intact but unlinkable, and \
         Resolver-Less DNS trades the registry leak for full content-server exposure)"
    );

    println!("\n== farm scaling: per-resolver caches, per-client leak rate vs farm size ==");
    let curve = farm.scaling(&[1, 2, 4, 8, 16, 32], exec);
    print!("{}", render_table(&FARM_HEADERS, &farm_rows(&curve)));
    println!(
        "(fragmenting the client base across more caches multiplies what the registry sees: \
         every cache re-leaks the same names once per span TTL)"
    );

    println!("\n== DITL-scale trace through the farm (1/{ditl_scale} sample) ==");
    print!("{}", render_table(&FARM_HEADERS, &farm_rows(&farm.ditl(ditl_scale, exec))));
    println!(
        "(the Fig. 12 day-in-the-life volume replayed against the farm instead of one resolver: \
         per-client attribution survives any partition of the trace)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_take_values_inline_or_next() {
        let a = parse(&["fig12", "--full", "--jobs", "3", "--resume=j.ckpt"]).unwrap();
        assert!(a.full);
        assert_eq!(a.exec, Executor::new(3));
        assert_eq!(a.journal.as_deref(), Some("j.ckpt"));
        assert_eq!(a.section.map(|i| SECTIONS[i].0), Some(&["fig12"][..]));
        assert_eq!(parse(&["--jobs=2", "all"]).unwrap().section, None);
        assert_eq!(parse(&["fig10"]).unwrap().section, parse(&["table5"]).unwrap().section);
    }

    #[test]
    fn unknown_input_is_an_error() {
        for bad in [
            &["nosuch"][..],
            &["--stream", "fig9"],
            &["--jobs"],
            &["--jobs", "many"],
            &["--full=yes"],
            &["table1", "table2"],
            &["--jobs", "0"],
            &["--jobs=0", "fig9"],
            &["table1", "--resume", "j.ckpt"],
            &["--checkpoint=j.ckpt", "chaos"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    /// The header doc lists exactly the sections of [`SECTIONS`], in
    /// order, so the two cannot drift apart.
    #[test]
    fn header_doc_lists_every_section() {
        let source = include_str!("repro.rs");
        let start = source.find("//! table1").expect("header lists the sections");
        let listed: Vec<&str> = source[start..]
            .lines()
            .take_while(|line| !line.starts_with("//! ```"))
            .flat_map(|line| line.trim_start_matches("//!").split_whitespace())
            .collect();
        let table: Vec<String> = SECTIONS.iter().map(|(names, _)| names.join("/")).collect();
        assert_eq!(listed, table);
    }
}

//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--full] [--jobs N] [EXPERIMENT|all]
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
//! environment variables.
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
//! Exit status:
//!
//! - 0: every section printed, or a reader closed stdout early
//!   (`repro all | head`); the run stops quietly at the closed pipe.
//! - 1: any other stdout write error, reported on stderr as
//!   `repro: writing stdout: <why>`.
//! - 2: an unknown flag or experiment name, or `--jobs 0`; the usage line
//!   goes to stderr.
//! - 101: a panic, which is a program bug. A shard that panics stops its
//!   sweep, and its own panic message is the one on stderr.

use std::env;
use std::io::{self, Write};
use std::num::NonZeroU64;
use std::process::ExitCode;

use lookaside::attacks;
use lookaside::byzantine::{byzantine_sweep, ByzantineConfig};
use lookaside::chaos::{chaos_outage, ChaosConfig};
use lookaside::engine::Executor;
use lookaside::experiments::{
    deployment_sweep, fig11, fig12, fig8_9, nsec3_tradeoff, order_matters, qmin_exposure, table3,
    table4, table5, tld_breakdown, trace_replay, utility, vantage_sweep,
};
use lookaside::farm::{Farm, FarmConfig, TopologyReport};
use lookaside::lifecycle::{lifecycle_sweep, LifecycleConfig};
use lookaside::report::{megabytes, pct, render_table};
use lookaside::workload;
use lookaside_resolver::{environments, InstallMethod};

/// A printable section: the names it answers to, and how to print it to
/// stdout under the parsed command line.
type Section = (&'static [&'static str], fn(&mut dyn Write, &Args) -> io::Result<()>);

/// Fig. 12's trace sampling without `--full`.
const FIG12_QUICK_SCALE: NonZeroU64 = NonZeroU64::new(500).expect("500 is not zero");

/// Every section `repro` prints, in the order `all` runs them. Dispatch,
/// the usage line, and the header doc all follow this table.
const SECTIONS: &[Section] = &[
    (&["table1"], |out, _| print_table1(out)),
    (&["table2"], |out, _| print_table2(out)),
    (&["table3"], |out, _| print_table3(out)),
    (&["table4"], |out, a| print_table4(out, &table_sizes(a.full))),
    (&["table5", "fig10"], |out, a| print_table5_fig10(out, &table_sizes(a.full))),
    (&["fig8", "fig9"], |out, a| print_fig8_9(out, &a.exec, &sweep_sizes(a.full))),
    (&["order"], |out, _| print_order(out)),
    (&["utility"], |out, a| print_utility(out, if a.full { 10_000 } else { 2_000 })),
    (&["fig11"], |out, a| print_fig11(out, if a.full { 10_000 } else { 1_000 })),
    (&["fig12"], |out, a| {
        print_fig12(out, &a.exec, if a.full { NonZeroU64::MIN } else { FIG12_QUICK_SCALE })
    }),
    (&["nsec3"], |out, a| print_nsec3(out, if a.full { 5_000 } else { 500 })),
    (&["qmin"], |out, a| print_qmin(out, if a.full { 2_000 } else { 300 })),
    (&["vantage"], |out, a| print_vantage(out, &a.exec, if a.full { 2_000 } else { 300 })),
    (&["deployment"], |out, a| print_deployment(out, &a.exec, if a.full { 5_000 } else { 800 })),
    (&["tlds"], |out, a| print_tlds(out, if a.full { 5_000 } else { 800 })),
    (&["trace"], |out, a| print_trace(out, if a.full { (50_000, 5_000) } else { (3_000, 500) })),
    (&["survey"], |out, _| print_survey(out)),
    (&["dict"], |out, _| print_dictionary(out)),
    (&["attacks"], |out, _| print_attacks(out)),
    (&["chaos"], |out, a| print_chaos(out, &a.exec, if a.full { 120 } else { 25 })),
    (&["byzantine"], |out, a| print_byzantine(out, &a.exec, if a.full { 60 } else { 15 })),
    (&["lifecycle"], |out, a| print_lifecycle(out, &a.exec, if a.full { 10 } else { 5 })),
    (&["farm"], |out, a| print_farm(out, &a.exec, if a.full { 500 } else { 2_000 })),
];

/// The parsed command line: everything a run is configured by.
struct Args {
    full: bool,
    /// The pool every sweep runs on: `--jobs` workers.
    exec: Executor,
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
    match print_sections(&mut io::stdout().lock(), &args) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader has all it wanted (`repro all | head`).
        Err(err) if err.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("repro: writing stdout: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Prints the sections the command line names, in table order, stopping
/// at the first write error.
fn print_sections(out: &mut dyn Write, args: &Args) -> io::Result<()> {
    for (i, (_, print)) in SECTIONS.iter().enumerate() {
        if args.section.is_none_or(|wanted| wanted == i) {
            print(out, args)?;
        }
    }
    out.flush()
}

/// The one-line usage summary printed with every command-line error.
fn usage() -> String {
    let names: Vec<&str> = SECTIONS.iter().flat_map(|(names, _)| names.iter().copied()).collect();
    format!("usage: repro [--full] [--jobs N] [all|{}]", names.join("|"))
}

/// Parses the command line, accepting both `--flag VALUE` and
/// `--flag=VALUE` for the flags that take a value. Anything unknown, or
/// anything the run would silently ignore, is an error.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut full = false;
    let mut jobs = None;
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
    let exec = jobs.map_or_else(Executor::default, Executor::new);
    Ok(Args { full, exec, section })
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

fn print_table1(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "\n== Table 1: resolver versions per environment ==")?;
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
    write!(out, "{}", render_table(&["OS", "software", "package (P)", "manual (M)"], &rows))
}

fn print_table2(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "\n== Table 2: default configuration per install method ==")?;
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
    write!(
        out,
        "{}",
        render_table(&["install", "DNSSEC", "validation", "DLV", "trust anchor"], &rows)
    )
}

fn print_table3(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "\n== Table 3: do *secured* domains leak to DLV? (huque45) ==")?;
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
    write!(out, "{}", render_table(&["install", "secured leaked", "islands to DLV"], &rows))?;
    writeln!(
        out,
        "(paper: apt-get No, apt-get\u{2020} Yes, yum No, manual Yes; 5 islands under correct config)"
    )
}

fn print_table4(out: &mut dyn Write, sizes: &[usize]) -> io::Result<()> {
    writeln!(out, "\n== Table 4: queries by type ==")?;
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
    write!(
        out,
        "{}",
        render_table(&["#domains", "A", "AAAA", "DNSKEY", "DS", "NS", "PTR", "total"], &rows)
    )?;
    writeln!(out, "(paper @100: A 467, AAAA 243, DNSKEY 32, DS 221, NS 36, PTR 2, total 1001)")
}

fn print_table5_fig10(out: &mut dyn Write, sizes: &[usize]) -> io::Result<()> {
    writeln!(out, "\n== Table 5 / Fig. 10: TXT-remedy overhead ==")?;
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
    write!(
        out,
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
    )?;
    writeln!(out, "(paper ratios: time 18.7\u{2192}29.2%, traffic 6.7\u{2192}10.0%, queries 10.8\u{2192}19.7%)")
}

fn print_fig8_9(out: &mut dyn Write, exec: &Executor, sizes: &[usize]) -> io::Result<()> {
    writeln!(out, "\n== Figs. 8\u{2013}9: DLV queries and leaked proportion ==")?;
    write!(out, "{}", lookaside::report::fig8_9_table(&fig8_9(exec, sizes, 11)))?;
    writeln!(out, "(paper: 84% @100 decaying ~linearly in log N to 6.8% @1M)")
}

fn print_order(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "\n== \u{a7}5.1 order matters: shuffled top-100 ==")?;
    let rows: Vec<Vec<String>> = order_matters(100, &[1, 2, 3], 19)
        .iter()
        .map(|(seed, prop)| vec![format!("shuffle {seed}"), pct(*prop)])
        .collect();
    write!(out, "{}", render_table(&["trial", "leaked %"], &rows))?;
    writeln!(out, "(paper: 82%, 84%, 77% across trials)")
}

fn print_utility(out: &mut dyn Write, n: usize) -> io::Result<()> {
    writeln!(out, "\n== \u{a7}5.3 validation utility (misconfigured profile, top-{n}) ==")?;
    let report = utility(n, 13);
    let rows = vec![vec![
        report.dlv_queries.to_string(),
        report.case1.to_string(),
        report.case2.to_string(),
        pct(report.leak_fraction()),
    ]];
    write!(out, "{}", render_table(&["DLV queries", "No error", "No such name", "leak %"], &rows))?;
    writeln!(out, "(paper: \u{2248}98.8% of DLV queries provide no validation utility)")
}

fn print_fig11(out: &mut dyn Write, n: usize) -> io::Result<()> {
    writeln!(out, "\n== Fig. 11: remedies compared (top-{n}) ==")?;
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
    write!(
        out,
        "{}",
        render_table(&["remedy", "time (s)", "MB", "queries", "case-2 leaks"], &rows)
    )?;
    writeln!(out, "(paper: TXT highest overhead, Z-bit minimal; both eliminate leaks)")
}

fn print_fig12(out: &mut dyn Write, exec: &Executor, scale: NonZeroU64) -> io::Result<()> {
    writeln!(out, "\n== Fig. 12: DITL trace-driven overhead (sampling 1/{scale}) ==")?;
    let data = fig12(exec, 23, scale);
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
    write!(
        out,
        "{}",
        render_table(&["minute", "queries/min", "cum queries", "cum base MB", "cum ovh MB"], &rows)
    )?;
    writeln!(
        out,
        "total overhead: {} MB over 7h = {:.3} Mbps (paper: \u{2248}1.2 GB, 0.38 Mbps)",
        megabytes(*data.cumulative_overhead_bytes.last().unwrap()),
        data.overhead_mbps
    )
}

fn print_nsec3(out: &mut dyn Write, n: usize) -> io::Result<()> {
    writeln!(out, "\n== \u{a7}7.3 NSEC vs NSEC3 registry (top-{n}) ==")?;
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
    write!(
        out,
        "{}",
        render_table(&["denial", "DLV queries", "suppressed", "case-2 leaks"], &rows)
    )?;
    writeln!(
        out,
        "(paper \u{a7}7.3: without aggressive negative caching, every query \
         triggers a DLV query — NSEC3 trades enumeration resistance for leakage)"
    )
}

fn print_qmin(out: &mut dyn Write, n: usize) -> io::Result<()> {
    writeln!(out, "\n== RFC 7816 extension: QNAME minimisation vs DLV leakage (top-{n}) ==")?;
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
    write!(
        out,
        "{}",
        render_table(
            &["qmin", "names at root", "sub-SLD names at TLDs", "DLV case-2 leaks"],
            &rows
        )
    )?;
    writeln!(out, "(minimisation shields on-path servers; DLV leaks are untouched — the look-aside query *is* the name)")
}

fn print_vantage(out: &mut dyn Write, exec: &Executor, n: usize) -> io::Result<()> {
    writeln!(
        out,
        "\n== \u{a7}7.1 vantage generality: same findings from every vantage (top-{n}) =="
    )?;
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
    write!(
        out,
        "{}",
        render_table(&["vantage", "case-2 leaks", "distinct leaked", "sim time (s)"], &rows)
    )?;
    writeln!(out, "(paper \u{a7}7.1: \"results among different platforms remain the same\")")
}

fn print_deployment(out: &mut dyn Write, exec: &Executor, n: usize) -> io::Result<()> {
    writeln!(
        out,
        "\n== \u{a7}7.1 deployment sweep: leak share vs DLV deposit density (top-{n}) =="
    )?;
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
    write!(
        out,
        "{}",
        render_table(&["islands depositing", "No error", "No such name", "leak %"], &rows)
    )?;
    writeln!(
        out,
        "(paper \u{a7}7.1: findings become less significant as more domains populate the registry)"
    )
}

fn print_tlds(out: &mut dyn Write, n: usize) -> io::Result<()> {
    writeln!(out, "\n== per-TLD leakage breakdown (top-{n}) ==")?;
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
    write!(
        out,
        "{}",
        render_table(&["TLD", "zone", "domains", "leaked", "leak %", "secure leaked"], &rows)
    )?;
    writeln!(out, "(secure children — signed with DS — never leak; unsigned TLDs cannot have any)")
}

fn print_trace(out: &mut dyn Write, (draws, support): (usize, usize)) -> io::Result<()> {
    writeln!(
        out,
        "\n== trace replay: {draws} Zipf stub queries over top-{support} (Fig. 12 cross-check) =="
    )?;
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
    write!(
        out,
        "{}",
        render_table(
            &["remedy", "stub q", "distinct", "upstream q", "upstream/q", "TXT probes"],
            &rows
        )
    )?;
    writeln!(
        out,
        "(TXT probes track distinct zones, not query volume — the Fig. 12 cache assumption)"
    )
}

fn print_survey(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "\n== \u{a7}5.2 operator survey (DNS-OARC 2015) ==")?;
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
    write!(out, "{}", render_table(&["answer", "count", "share"], &rows))
}

fn print_dictionary(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "\n== \u{a7}6.2.4 dictionary attack on hashed DLV ==")?;
    let pop = workload::DomainPopulation::new(workload::PopulationParams {
        size: 10_000,
        ..workload::PopulationParams::default()
    });
    let full: Vec<_> = (1..=10_000).map(|r| pop.domain(r)).collect();
    let dnssec_only: Vec<_> =
        (1..=10_000).filter(|&r| pop.attributes(r).signed).map(|r| pop.domain(r)).collect();
    let observed = attacks::observe_hashed(500, 35);
    let outcome_full = attacks::dictionary_attack(&observed, full);
    let outcome_small = attacks::dictionary_attack(&observed, dnssec_only);
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
    write!(
        out,
        "{}",
        render_table(&["dictionary", "size", "observed", "recovered", "rate"], &rows)
    )?;
    writeln!(
        out,
        "(paper: full-space dictionaries are impractical at 350M+ names; a DNSSEC-only \
         dictionary shrinks the search but misses non-DNSSEC leaks)"
    )
}

fn print_chaos(out: &mut dyn Write, exec: &Executor, n: usize) -> io::Result<()> {
    writeln!(out, "\n== \u{a7}7.3.2 chaos sweep: DLV-registry outage vs leakage amplification ({n} queries/cell) ==")?;
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
    write!(
        out,
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
    )?;
    writeln!(
        out,
        "(retries multiply on-wire exposure as the registry degrades; the RFC 2308 \
         SERVFAIL cache collapses it by holding the dead zone down)"
    )
}

fn print_byzantine(out: &mut dyn Write, exec: &Executor, n: usize) -> io::Result<()> {
    writeln!(
        out,
        "\n== Byzantine sweep: data-plane adversaries \u{d7} validator hardening ({n} queries/cell) =="
    )?;
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
    write!(
        out,
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
    )?;
    writeln!(
        out,
        "(wrong answers leak more than lost ones: corruption and truncation retrigger \
         transmissions, while hardening preserves availability through every decommission stage)"
    )
}

fn print_lifecycle(out: &mut dyn Write, exec: &Executor, n: usize) -> io::Result<()> {
    writeln!(
        out,
        "\n== key-lifecycle sweep: rollovers, expiry storms, RFC 5011 ({n} queries/event) =="
    )?;
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
    write!(
        out,
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
    )?;
    writeln!(
        out,
        "(a missed KSK rollover strands the resolver anchorless: validation collapses to \
         the look-aside walk and every fresh name leaks to the registry until an anchor \
         is re-installed out of band)"
    )
}

fn print_attacks(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "\n== \u{a7}6.2.3 signaling attacks ==")?;
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
    write!(out, "{}", render_table(&["attack", "leaks (remedy)", "leaks (attacked)"], &rows))
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

fn print_farm(out: &mut dyn Write, exec: &Executor, ditl_scale: u64) -> io::Result<()> {
    let farm = Farm::new(FarmConfig::paper_scale());
    let clients = farm.config().plane.clients;
    let resolvers = farm.config().resolvers;

    writeln!(
        out,
        "\n== resolver farm: {clients} stub clients, {resolvers} resolvers, topology sweep =="
    )?;
    write!(out, "{}", render_table(&FARM_HEADERS, &farm_rows(&farm.sweep(exec))))?;
    writeln!(
        out,
        "(aggregation is the accidental remedy: a shared cache dedupes case-2 names across the \
         whole client base, an ODoH split leaves the registry's view intact but unlinkable, and \
         Resolver-Less DNS trades the registry leak for full content-server exposure)"
    )?;

    writeln!(out, "\n== farm scaling: per-resolver caches, per-client leak rate vs farm size ==")?;
    let curve = farm.scaling(&[1, 2, 4, 8, 16, 32], exec);
    write!(out, "{}", render_table(&FARM_HEADERS, &farm_rows(&curve)))?;
    writeln!(
        out,
        "(fragmenting the client base across more caches multiplies what the registry sees: \
         every cache re-leaks the same names once per span TTL)"
    )?;

    writeln!(out, "\n== DITL-scale trace through the farm (1/{ditl_scale} sample) ==")?;
    write!(out, "{}", render_table(&FARM_HEADERS, &farm_rows(&farm.ditl(ditl_scale, exec))))?;
    writeln!(
        out,
        "(the Fig. 12 day-in-the-life volume replayed against the farm instead of one resolver: \
         per-client attribution survives any partition of the trace)"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_take_values_inline_or_next() {
        let a = parse(&["fig12", "--full", "--jobs", "3"]).unwrap();
        assert!(a.full);
        assert_eq!(a.exec, Executor::new(3));
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

//! Configuration survey: replay the paper's §4/§5.2 configuration analysis
//! — which install method leaks, and what happens to the 45 DNSSEC-secured
//! domains under each.
//!
//! ```text
//! cargo run --release -p lookaside --example config_survey
//! ```

#![expect(clippy::disallowed_macros, reason = "an example prints what it demonstrates")]

use lookaside::experiments::{run, QuerySet, RunConfig};
use lookaside_resolver::{EffectiveBehavior, InstallMethod, ResolverConfig};
use lookaside_wire::ext::RemedyMode;
use lookaside_workload::PopulationParams;

fn main() {
    println!("install-method semantics (Table 2) and their §5.2 consequences:\n");
    for method in InstallMethod::ALL {
        let config = method.bind_config();
        let behavior = EffectiveBehavior::from_config(&ResolverConfig::Bind(config));
        println!("{:<10} -> {:?}", method.label(), behavior);
    }

    println!("\nquerying the 45 DNSSEC-secured domains under each install method:");
    println!("(5 of them are islands of security; those go to DLV even when");
    println!(" everything is configured correctly — the rest must never leak)\n");
    for method in InstallMethod::ALL {
        let config = RunConfig {
            population: PopulationParams { size: 1000, ..PopulationParams::default() },
            queries: QuerySet::Huque,
            resolver: ResolverConfig::Bind(method.bind_config()),
            remedy: RemedyMode::None,
            seed: 3,
            dlv_span_ttl: lookaside_server::DLV_SPAN_TTL,
            dlv_denial: lookaside_zone::DenialMode::Nsec,
        };
        let outcome = run(&config);
        let corpus = lookaside_workload::huque45();
        let secured_leaked = corpus
            .iter()
            .filter(|d| d.ds_in_parent)
            .filter(|d| outcome.leakage.leaked_names.contains(&d.name))
            .count();
        println!(
            "{:<10} secure={:<3} via-DLV={:<2} | DLV queries={:<3} case2={:<3} secured-domains leaked={}",
            method.label(),
            outcome.statuses.secure,
            outcome.statuses.secure_via_dlv,
            outcome.leakage.dlv_queries,
            outcome.leakage.case2,
            secured_leaked,
        );
    }
    println!("\npaper's Table 3: apt-get No, apt-get\u{2020} Yes, yum No, manual Yes");

    let s = lookaside_workload::survey();
    println!(
        "\nDNS-OARC 2015 survey: {:.1}% of {} operators run package defaults, \
         {:.1}% manual defaults, {:.1}% use ISC's DLV server",
        s.pct(s.package_defaults),
        s.total,
        s.pct(s.manual_defaults),
        s.pct(s.isc_dlv),
    );
}

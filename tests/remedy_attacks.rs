//! §6.2 remedies and §6.2.3 attacks, end-to-end: each remedy closes the
//! leak without destroying DLV's validation utility, and each unsigned
//! signal can be defeated by an on-path attacker.

use lookaside::attacks::{dictionary_attack, observe_hashed, txt_poison_attack, zbit_flip_attack};
use lookaside::experiments::{run, RunConfig};
use lookaside_wire::ext::RemedyMode;
use lookaside_workload::{DomainPopulation, PopulationParams};

fn leak_count(remedy: RemedyMode, n: usize, seed: u64) -> (usize, usize) {
    let mut config = RunConfig::for_top(n, remedy);
    config.seed = seed;
    let outcome = run(&config);
    (outcome.leakage.case2, outcome.statuses.secure_via_dlv)
}

#[test]
fn baseline_leaks_most_domains() {
    let (leaks, _) = leak_count(RemedyMode::None, 100, 41);
    assert!(leaks > 60, "baseline must leak the majority ({leaks})");
}

#[test]
fn txt_remedy_closes_the_leak_and_keeps_utility() {
    let (leaks, via_dlv) = leak_count(RemedyMode::TxtSignal, 400, 41);
    assert_eq!(leaks, 0, "TXT signaling must stop Case-2 leakage");
    let (_, via_dlv_baseline) = leak_count(RemedyMode::None, 400, 41);
    assert_eq!(via_dlv, via_dlv_baseline, "deposited islands still validate via DLV");
}

#[test]
fn zbit_remedy_closes_the_leak_and_keeps_utility() {
    let (leaks, via_dlv) = leak_count(RemedyMode::ZBit, 400, 41);
    assert_eq!(leaks, 0, "Z-bit signaling must stop Case-2 leakage");
    let (_, via_dlv_baseline) = leak_count(RemedyMode::None, 400, 41);
    assert_eq!(via_dlv, via_dlv_baseline);
}

#[test]
fn hashed_remedy_hides_plaintext_but_not_query_existence() {
    let mut config = RunConfig::for_top(150, RemedyMode::HashedDlv);
    config.seed = 43;
    let outcome = run(&config);
    // Queries still reach the registry (observable), but every observed
    // name is a fixed-width hash label.
    assert!(outcome.leakage.dlv_queries > 0);
    for name in &outcome.leakage.leaked_names {
        let label = name.label(0).to_string();
        assert_eq!(label.len(), 32);
        assert!(label.bytes().all(|b| b.is_ascii_hexdigit()));
    }
    // Validation utility is preserved.
    let (_, via_dlv_baseline) = leak_count(RemedyMode::None, 150, 43);
    assert_eq!(outcome.statuses.secure_via_dlv, via_dlv_baseline);
}

#[test]
fn zbit_flip_attack_restores_leakage() {
    let outcome = zbit_flip_attack(120, 45);
    assert_eq!(outcome.leaks_with_remedy, 0);
    assert!(
        outcome.leaks_under_attack > 40,
        "flipping Z must re-enable leakage (got {})",
        outcome.leaks_under_attack
    );
}

#[test]
fn txt_poison_attack_restores_leakage() {
    let outcome = txt_poison_attack(120, 47);
    assert_eq!(outcome.leaks_with_remedy, 0);
    assert!(outcome.leaks_under_attack > 40);
}

#[test]
fn dictionary_attack_scales_with_dictionary_coverage() {
    let pop = DomainPopulation::new(PopulationParams { size: 2000, ..PopulationParams::default() });
    let full: Vec<_> = (1..=500).map(|r| pop.domain(r)).collect();
    let partial: Vec<_> = (1..=500).step_by(10).map(|r| pop.domain(r)).collect();
    let observed = observe_hashed(120, 49);
    let big = dictionary_attack(&observed, full);
    let small = dictionary_attack(&observed, partial);
    assert!(big.recovered > small.recovered, "{} vs {}", big.recovered, small.recovered);
    assert_eq!(small.hash_ops, 50);
    assert!(big.recovery_rate() <= 1.0);
}

//! Attack simulations from §6.2.3 (signaling attacks) and §6.2.4
//! (dictionary attack on hashed DLV).

use std::collections::BTreeMap;

use lookaside_crypto::hashed_dlv_label;
use lookaside_netsim::Direction;
use lookaside_wire::ext::RemedyMode;
use lookaside_wire::{Message, Name, RData};
use serde::Serialize;

use crate::experiments::{run, run_with, RunConfig, RunOutcome};

/// Outcome of a man-in-the-middle attack on a remedy signal: leakage with
/// the remedy in place, and leakage once the attacker rewrites the signal.
#[derive(Debug, Clone, Serialize)]
pub struct SignalAttackOutcome {
    /// Case-2 leaks with the remedy active and unattacked.
    pub leaks_with_remedy: usize,
    /// Case-2 leaks under attack.
    pub leaks_under_attack: usize,
}

/// §6.2.3: an attacker flips the spare Z bit on every response, convincing
/// the resolver that every zone has a DLV deposit — re-enabling the leak
/// the Z-bit remedy had closed.
pub fn zbit_flip_attack(n: usize, seed: u64) -> SignalAttackOutcome {
    let mut config = RunConfig::for_top(n, RemedyMode::ZBit);
    config.seed = seed;
    let clean = run(&config);

    let attacked = run_with_tamper(&config, |msg, dir| {
        if dir == Direction::Response {
            msg.header.flags.z = true;
        }
    });
    SignalAttackOutcome {
        leaks_with_remedy: clean.leakage.case2,
        leaks_under_attack: attacked.leakage.case2,
    }
}

/// §6.2.3: an attacker rewrites `dlv=0` TXT signals to `dlv=1`.
pub fn txt_poison_attack(n: usize, seed: u64) -> SignalAttackOutcome {
    let mut config = RunConfig::for_top(n, RemedyMode::TxtSignal);
    config.seed = seed;
    let clean = run(&config);

    let attacked = run_with_tamper(&config, |msg, dir| {
        if dir == Direction::Response {
            for rec in &mut msg.answers {
                if let RData::Txt(segments) = &mut rec.rdata {
                    for seg in segments.iter_mut() {
                        if seg == "dlv=0" {
                            *seg = "dlv=1".to_string();
                        }
                    }
                }
            }
        }
    });
    SignalAttackOutcome {
        leaks_with_remedy: clean.leakage.case2,
        leaks_under_attack: attacked.leakage.case2,
    }
}

/// [`run`] with a man-in-the-middle installed on the freshly built
/// network — the tamper hook is the only difference from a clean run.
fn run_with_tamper(
    config: &RunConfig,
    tamper: impl FnMut(&mut Message, Direction) + 'static,
) -> RunOutcome {
    run_with(config, |internet| internet.net.set_tamper(Some(Box::new(tamper))))
}

/// §6.2.4 dictionary attack on hashed DLV.
#[derive(Debug, Clone, Serialize)]
pub struct DictionaryOutcome {
    /// Hashed labels observed at the registry.
    pub observed: usize,
    /// Candidate names hashed by the attacker.
    pub dictionary_size: usize,
    /// Hash evaluations performed (= dictionary size; each candidate is
    /// hashed once).
    pub hash_ops: u64,
    /// Observed labels whose preimage the dictionary recovered.
    pub recovered: usize,
}

impl DictionaryOutcome {
    /// Fraction of observed hashed queries de-anonymised.
    pub fn recovery_rate(&self) -> f64 {
        if self.observed == 0 {
            return 0.0;
        }
        self.recovered as f64 / self.observed as f64
    }
}

/// Runs a hashed-DLV workload, collects the hashed labels the registry
/// observed, then mounts a dictionary attack with the given candidate set.
pub fn dictionary_attack<I>(n: usize, seed: u64, dictionary: I) -> DictionaryOutcome
where
    I: IntoIterator<Item = Name>,
{
    let mut config = RunConfig::for_top(n, RemedyMode::HashedDlv);
    config.seed = seed;
    let outcome = run(&config);
    // Observed hashed labels (first label of each leaked query name).
    let observed: Vec<String> =
        outcome.leakage.leaked_names.iter().map(|name| name.label(0).to_string()).collect();

    let mut table: BTreeMap<String, Name> = BTreeMap::new();
    let mut hash_ops = 0u64;
    for candidate in dictionary {
        table.insert(hashed_dlv_label(&candidate), candidate);
        hash_ops += 1;
    }
    let recovered = observed.iter().filter(|label| table.contains_key(*label)).count();
    DictionaryOutcome {
        observed: observed.len(),
        dictionary_size: table.len(),
        hash_ops,
        recovered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lookaside_workload::{DomainPopulation, PopulationParams};

    #[test]
    fn zbit_flip_reenables_leakage() {
        let outcome = zbit_flip_attack(50, 31);
        assert_eq!(outcome.leaks_with_remedy, 0, "remedy works unattacked");
        assert!(outcome.leaks_under_attack > 10, "attack re-enables leaks");
    }

    #[test]
    fn txt_poison_reenables_leakage() {
        let outcome = txt_poison_attack(50, 33);
        assert_eq!(outcome.leaks_with_remedy, 0);
        assert!(outcome.leaks_under_attack > 10);
    }

    #[test]
    fn full_dictionary_recovers_everything() {
        let pop =
            DomainPopulation::new(PopulationParams { size: 1000, ..PopulationParams::default() });
        let dictionary: Vec<_> = (1..=200).map(|r| pop.domain(r)).collect();
        let outcome = dictionary_attack(60, 35, dictionary);
        assert!(outcome.observed > 0);
        // Every queried *ranked* domain is in the attacker's dictionary;
        // hoster zones and unsigned TLDs also leak hashes but are not
        // candidates, so recovery sits well below 100 % yet far above the
        // small-dictionary case.
        // Hash-space NSEC spans suppress many lookups, so the observed set
        // is a fraction of the queried set.
        assert!(outcome.recovered > 10, "recovered {}", outcome.recovered);
        assert!(outcome.recovery_rate() > 0.25, "rate {}", outcome.recovery_rate());
    }

    #[test]
    fn small_dictionary_recovers_little() {
        let pop =
            DomainPopulation::new(PopulationParams { size: 1000, ..PopulationParams::default() });
        // Candidates far outside the queried top-60.
        let dictionary: Vec<_> = (500..=520).map(|r| pop.domain(r)).collect();
        let outcome = dictionary_attack(60, 35, dictionary);
        assert_eq!(outcome.recovered, 0);
        assert_eq!(outcome.hash_ops, 21);
    }
}

//! Property-based tests for the workload generators.

use proptest::prelude::*;

use lookaside_wire::Name;
use lookaside_workload::{DitlTrace, DomainPopulation, PopEntry, PopulationParams, Zipf, TLDS};

fn pop(size: usize, seed: u64) -> DomainPopulation {
    DomainPopulation::new(PopulationParams { size, seed, ..PopulationParams::default() })
}

/// `entry_of` as a format-and-parse through strings: the label is printed,
/// matched as `d` + 7 digits or `h` + 4 digits, parsed as a number, and
/// its entry rebuilt from the rank or index, name included.
fn entry_of_reference(p: &DomainPopulation, qname: &Name) -> Option<PopEntry> {
    if qname.label_count() < 2 {
        return None;
    }
    let apex = qname.suffix(2);
    let sld = apex.label(0).to_string();
    let tld = apex.label(1).to_string();
    let digits = |s: &str, n: usize| s.len() == n && s.bytes().all(|b| b.is_ascii_digit());
    if let Some(rest) = sld.strip_prefix('d').filter(|rest| digits(rest, 7)) {
        let rank: usize = rest.parse().ok()?;
        if rank == 0 || rank > p.size() {
            return None;
        }
        let attrs = p.attributes(rank);
        return (attrs.tld == tld).then_some(PopEntry::Domain(attrs));
    }
    if let Some(rest) = sld.strip_prefix('h').filter(|rest| digits(rest, 4)) {
        let index: usize = rest.parse().ok()?;
        if index >= p.params().hoster_pool {
            return None;
        }
        let attrs = p.hoster(index);
        return (attrs.tld == tld).then_some(PopEntry::Hoster(attrs));
    }
    None
}

proptest! {
    #[test]
    fn entry_of_inverts_domain(seed in any::<u64>(), rank in 1usize..5_000) {
        let p = pop(5_000, seed);
        let name = p.domain(rank);
        match p.entry_of(&name) {
            Some(PopEntry::Domain(attrs)) => {
                prop_assert_eq!(attrs.rank, rank);
                prop_assert_eq!(attrs.name, name);
            }
            other => prop_assert!(false, "expected domain, got {:?}", other),
        }
    }

    #[test]
    fn entry_of_parses_label_bytes_like_the_string_reference(
        seed in any::<u64>(),
        rank in 0usize..6_000,
        index in 0usize..3_200,
        tld in any::<prop::sample::Index>(),
        junk in proptest::string::string_regex("[a-z0-9]{1,9}").unwrap(),
    ) {
        let p = pop(5_000, seed);
        let tld = TLDS[tld.index(TLDS.len())].label;
        let slds = [
            format!("d{rank:07}"),
            format!("D{rank:07}"),
            format!("d{:07}", 0),
            format!("d{:07}", p.size() + 1 + rank),
            format!("d{:06}", rank),
            format!("d{rank:08}"),
            format!("d{junk}"),
            format!("d{:06}x", rank),
            format!("h{index:04}"),
            format!("H{index:04}"),
            format!("h{:03}", index % 1_000),
            format!("h{index:05}"),
            format!("h{junk}"),
            format!("huque{:02}", rank % 100),
            format!("huque{junk}"),
            junk.clone(),
        ];
        let tlds = [tld.to_string(), tld.to_uppercase(), "xyz".to_string(), format!("{tld}x")];
        for sld in &slds {
            for tld in &tlds {
                for prefix in ["", "www.", "ns1.mail."] {
                    let name = Name::parse(&format!("{prefix}{sld}.{tld}.")).unwrap();
                    prop_assert_eq!(p.entry_of(&name), entry_of_reference(&p, &name), "{}", name);
                }
            }
        }
        for name in [Name::root(), Name::parse(tld).unwrap()] {
            prop_assert_eq!(p.entry_of(&name), None);
        }

        // The population's own names, whose TLDs match: the parsed name is
        // the generated one, octet for octet.
        let rank = rank % p.size() + 1;
        let domain = p.domain(rank);
        for name in [domain.clone(), domain.prepend("www").unwrap()] {
            let entry = p.entry_of(&name);
            prop_assert_eq!(&entry, &entry_of_reference(&p, &name));
            let Some(PopEntry::Domain(attrs)) = entry else {
                panic!("{name} is ranked");
            };
            prop_assert_eq!(attrs.name.wire_labels(), domain.wire_labels());
        }
        let hoster = p.hoster(index % p.params().hoster_pool);
        let name = hoster.name.prepend("ns2").unwrap();
        prop_assert_eq!(p.entry_of(&name), Some(PopEntry::Hoster(hoster)));
        prop_assert_eq!(p.entry_of(&name), entry_of_reference(&p, &name));
    }

    #[test]
    fn attributes_respect_structural_invariants(seed in any::<u64>(), rank in 1usize..5_000) {
        let p = pop(5_000, seed);
        let a = p.attributes(rank);
        // DS implies signed; deposits imply islands.
        prop_assert!(!a.ds_in_parent || a.signed);
        prop_assert!(!a.deposited || (a.signed && !a.ds_in_parent));
        // Hosted domains name a hoster inside the pool.
        if let Some(h) = a.hoster {
            prop_assert!(!a.self_hosted);
            prop_assert!(h < p.params().hoster_pool);
        } else {
            prop_assert!(a.self_hosted);
        }
    }

    #[test]
    fn repo_neighbour_brackets_rank(seed in any::<u64>(), rank in 1usize..4_999) {
        let p = pop(5_000, seed);
        let domain = p.domain(rank);
        let neighbour = p.repo_neighbour_name(rank);
        prop_assert_eq!(domain.canonical_cmp(&neighbour), std::cmp::Ordering::Less);
        // No ranked domain may ever sort between a domain and its neighbour.
        let next_rank = rank + 1;
        let next = p.domain(next_rank);
        if p.attributes(next_rank).tld == p.attributes(rank).tld {
            prop_assert_eq!(neighbour.canonical_cmp(&next), std::cmp::Ordering::Less);
        }
    }

    #[test]
    fn concatenated_rank_shards_equal_full_iteration(
        seed in any::<u64>(),
        n in 1usize..3_000,
        shards in 1usize..9,
    ) {
        let p = pop(3_000, seed);
        let full: Vec<_> = p.rank_range(1..n + 1).collect();
        prop_assert_eq!(&full, &p.top(n));
        // Split 1..n+1 into `shards` contiguous pieces (earlier pieces take
        // the remainder, mirroring the engine's ShardPlan::split_range) and
        // check the concatenation reproduces the full iteration exactly.
        let len = n;
        let k = shards.min(len);
        let base = len / k;
        let extra = len % k;
        let mut concatenated = Vec::with_capacity(len);
        let mut lo = 1usize;
        for id in 0..k {
            let take = base + usize::from(id < extra);
            concatenated.extend(p.rank_range(lo..lo + take));
            lo += take;
        }
        prop_assert_eq!(lo, n + 1);
        prop_assert_eq!(concatenated, full);
    }

    #[test]
    fn zipf_samples_stay_in_support(n in 1usize..5_000, s in 0.1f64..2.0, h in any::<u64>()) {
        let z = Zipf::new(n, s);
        let k = z.sample_hash(h);
        prop_assert!((1..=n).contains(&k));
    }

    #[test]
    fn ditl_traces_always_hit_the_exact_total(seed in any::<u64>()) {
        let trace = DitlTrace::generate(seed);
        prop_assert_eq!(trace.total(), lookaside_workload::DITL_TOTAL_QUERIES);
        for &v in trace.per_minute() {
            prop_assert!((160_000..=360_000).contains(&v));
        }
    }
}

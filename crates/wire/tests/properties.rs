//! Property-based tests for the wire layer: parsing, canonical ordering,
//! and codec round-trips over arbitrary inputs.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use lookaside_wire::codec::{Reader, Writer};
use lookaside_wire::{Message, Name, NameMap, NameSet, RData, Record, RrType, TypeBitmap};

fn label_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9]([a-z0-9-]{0,14}[a-z0-9])?").expect("valid regex")
}

fn name_strategy() -> impl Strategy<Value = Name> {
    proptest::collection::vec(label_strategy(), 1..6)
        .prop_map(|labels| Name::parse(&labels.join(".")).expect("generated names are valid"))
}

fn mixed_case_label_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z0-9]([a-zA-Z0-9-]{0,14}[a-zA-Z0-9])?")
        .expect("valid regex")
}

fn mixed_case_name_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(mixed_case_label_strategy(), 1..6).prop_map(|labels| labels.join("."))
}

/// RFC 4034 §6.1 canonical ordering over an explicit label-vector model —
/// the representation (and semantics) `Name` had before the compact byte
/// buffer: compare label sequences right to left, each label as
/// lower-cased raw bytes, with a missing (shorter) sequence sorting first.
fn reference_canonical_cmp(a: &Name, b: &Name) -> std::cmp::Ordering {
    let la: Vec<Vec<u8>> = a.labels().map(|l| l.as_bytes().to_ascii_lowercase()).collect();
    let lb: Vec<Vec<u8>> = b.labels().map(|l| l.as_bytes().to_ascii_lowercase()).collect();
    for (x, y) in la.iter().rev().zip(lb.iter().rev()) {
        match x.cmp(y) {
            std::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    la.len().cmp(&lb.len())
}

proptest! {
    #[test]
    fn parse_display_round_trip(name in name_strategy()) {
        let text = name.to_string();
        let back = Name::parse(&text).unwrap();
        prop_assert_eq!(back, name);
    }

    #[test]
    fn wire_round_trip_uncompressed(name in name_strategy()) {
        let mut buf = Vec::new();
        name.encode_uncompressed(&mut buf);
        prop_assert_eq!(buf.len(), name.wire_len());
        let mut reader = Reader::new(&buf);
        prop_assert_eq!(reader.read_name().unwrap(), name);
    }

    #[test]
    fn compressed_names_round_trip(names in proptest::collection::vec(name_strategy(), 1..8)) {
        let mut w = Writer::new();
        for name in &names {
            w.write_name(name);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for name in &names {
            prop_assert_eq!(&r.read_name().unwrap(), name);
        }
    }

    #[test]
    fn canonical_order_is_total_and_consistent(
        a in name_strategy(),
        b in name_strategy(),
        c in name_strategy(),
    ) {
        use std::cmp::Ordering;
        // Antisymmetry.
        prop_assert_eq!(a.canonical_cmp(&b), b.canonical_cmp(&a).reverse());
        // Reflexivity via equality.
        prop_assert_eq!(a.canonical_cmp(&a), Ordering::Equal);
        // Transitivity (spot form): if a<=b and b<=c then a<=c.
        if a.canonical_cmp(&b) != Ordering::Greater && b.canonical_cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.canonical_cmp(&c), Ordering::Greater);
        }
    }

    #[test]
    fn parent_is_strictly_smaller_suffix(name in name_strategy()) {
        if let Some(parent) = name.parent() {
            prop_assert!(name.is_subdomain_of(&parent));
            prop_assert!(!parent.is_subdomain_of(&name) || parent == name);
            prop_assert_eq!(parent.label_count() + 1, name.label_count());
        }
    }

    #[test]
    fn concat_strip_inverse(a in name_strategy(), b in name_strategy()) {
        if let Ok(joined) = a.concat(&b) {
            prop_assert_eq!(joined.strip_suffix(&b).unwrap(), a);
            prop_assert!(joined.is_subdomain_of(&b));
        }
    }

    #[test]
    fn type_bitmap_round_trip(codes in proptest::collection::btree_set(0u16..=40_000, 0..40)) {
        let bm: TypeBitmap = codes.iter().map(|&c| RrType::from_code(c)).collect();
        let mut buf = Vec::new();
        bm.encode(&mut buf);
        let back = TypeBitmap::decode(&buf).unwrap();
        prop_assert_eq!(back, bm);
    }

    #[test]
    fn message_round_trip_with_records(
        qname in name_strategy(),
        owners in proptest::collection::vec(name_strategy(), 0..6),
        ttl in 0u32..1_000_000,
    ) {
        let mut msg = Message::dnssec_query(1, qname, RrType::A);
        msg.header.flags.qr = true;
        for (i, owner) in owners.iter().enumerate() {
            msg.answers.push(Record::new(
                owner.clone(),
                ttl,
                RData::A(std::net::Ipv4Addr::new(192, 0, 2, (i % 250) as u8 + 1)),
            ));
        }
        let back = Message::from_bytes(&msg.to_bytes()).unwrap();
        prop_assert_eq!(back.answers.len(), msg.answers.len());
        for (a, b) in back.answers.iter().zip(&msg.answers) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn canonical_order_matches_label_vector_model(
        a in name_strategy(),
        b in name_strategy(),
    ) {
        prop_assert_eq!(a.canonical_cmp(&b), reference_canonical_cmp(&a, &b));
    }

    #[test]
    fn mixed_case_names_normalise_and_round_trip(text in mixed_case_name_strategy()) {
        let name = Name::parse(&text).unwrap();
        let lower = Name::parse(&text.to_ascii_lowercase()).unwrap();
        // The compact representation lower-cases at construction, exactly
        // as the old `Label`-vector Eq/Ord did at comparison time.
        prop_assert_eq!(&name, &lower);
        prop_assert_eq!(name.canonical_cmp(&lower), std::cmp::Ordering::Equal);

        // Codec round-trip: uncompressed and compressed forms both decode
        // back to the same (normalised) name.
        let mut buf = Vec::new();
        name.encode_uncompressed(&mut buf);
        prop_assert_eq!(Reader::new(&buf).read_name().unwrap(), name.clone());
        let mut w = Writer::new();
        w.write_name(&name);
        w.write_name(&lower); // second write must compress against the first
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        prop_assert_eq!(r.read_name().unwrap(), name.clone());
        prop_assert_eq!(r.read_name().unwrap(), name);
    }

    #[test]
    fn decoder_never_panics_on_junk(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Message::from_bytes(&bytes);
    }

    #[test]
    fn truncating_valid_messages_never_panics(
        qname in name_strategy(),
        cut in 0usize..64,
    ) {
        let msg = Message::dnssec_query(7, qname, RrType::Dlv);
        let bytes = msg.to_bytes();
        let cut = cut.min(bytes.len());
        let _ = Message::from_bytes(&bytes[..cut]);
    }

    #[test]
    fn corrupted_messages_decode_to_typed_errors_or_valid_messages(
        qname in name_strategy(),
        owners in proptest::collection::vec(name_strategy(), 0..5),
        salt in any::<u64>(),
    ) {
        let bytes = rendered_message(&qname, &owners).to_bytes();
        let mangled = mutate(&bytes, salt);
        // Either a typed error or a message that itself survives a full
        // re-encode/decode cycle: corruption must never panic or hang,
        // whatever it hits (counts, names, pointers, rdata lengths).
        if let Ok(msg) = Message::from_bytes(&mangled) {
            prop_assert!(Message::from_bytes(&msg.to_bytes()).is_ok());
        }
    }
}

/// The keys one name-map case draws on: each is the root, a short name
/// (stored inline), or a name over 22 octets (stored behind an `Arc`).
fn map_key_pool_strategy() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec((0u8..4, mixed_case_name_strategy()), 1..8).prop_map(|keys| {
        keys.into_iter()
            .map(|(form, text)| match form {
                0 => ".".to_string(),
                1 => format!("{text}.a-label-that-leaves-inline-storage"),
                _ => text,
            })
            .collect()
    })
}

/// Name-map operations: (kind, pool index, spelling, value).
fn map_ops_strategy() -> impl Strategy<Value = Vec<(u8, usize, u8, u32)>> {
    proptest::collection::vec((0u8..6, 0usize..8, 0u8..3, any::<u32>()), 0..64)
}

/// Spells one pool key three ways that all name the same name: as drawn,
/// upper-cased, or as the tail of a longer name, which shares that name's
/// heap buffer even when the tail itself is short.
fn spell(text: &str, spelling: u8) -> Name {
    let name = Name::parse(text).unwrap();
    match spelling {
        0 => name,
        1 => Name::parse(&text.to_ascii_uppercase()).unwrap(),
        _ if name.is_root() => name,
        _ => Name::parse(&format!("padding-that-forces-shared-storage.{text}"))
            .unwrap()
            .suffix(name.label_count()),
    }
}

proptest! {
    #[test]
    fn name_map_and_set_agree_with_a_canonical_btree_model(
        pool in map_key_pool_strategy(),
        ops in map_ops_strategy(),
    ) {
        let mut map = NameMap::new();
        let mut model: BTreeMap<Name, u32> = BTreeMap::new();
        let mut set = NameSet::new();
        let mut set_model: BTreeSet<Name> = BTreeSet::new();
        for (kind, index, spelling, value) in ops {
            let name = spell(&pool[index % pool.len()], spelling);
            match kind {
                0 => {
                    prop_assert_eq!(
                        map.insert(name.clone(), value),
                        model.insert(name.clone(), value)
                    );
                    prop_assert_eq!(set.insert(name.clone()), set_model.insert(name));
                }
                1 => {
                    prop_assert_eq!(map.get(&name), model.get(&name));
                    prop_assert_eq!(map.contains_key(&name), model.contains_key(&name));
                    prop_assert_eq!(set.contains(&name), set_model.contains(&name));
                }
                2 => {
                    prop_assert_eq!(map.remove(&name), model.remove(&name));
                    prop_assert_eq!(set.remove(&name), set_model.remove(&name));
                }
                3 => {
                    let got = map.entry(name.clone()).or_insert(value);
                    *got = got.wrapping_add(1);
                    let want = model.entry(name).or_insert(value);
                    *want = want.wrapping_add(1);
                    prop_assert_eq!(*got, *want);
                }
                4 => {
                    let got = map.get_mut(&name).map(|v| *v ^= value).is_some();
                    let want = model.get_mut(&name).map(|v| *v ^= value).is_some();
                    prop_assert_eq!(got, want);
                }
                _ => {
                    map.retain(|_, v| *v % 3 != value % 3);
                    model.retain(|_, v| *v % 3 != value % 3);
                }
            }
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(set.len(), set_model.len());
        }
        for (name, value) in &model {
            prop_assert_eq!(map.get(name), Some(value), "{}", name);
        }
        let mut values: Vec<u32> = map.values().copied().collect();
        let mut want: Vec<u32> = model.values().copied().collect();
        values.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(values, want);
        prop_assert!(set_model.iter().all(|name| set.contains(name)));
        prop_assert_eq!(map.is_empty(), model.is_empty());
        prop_assert_eq!(set.is_empty(), set_model.is_empty());
    }
}

/// A representative rendered response: question + EDNS + a mix of rdata
/// shapes (addresses, text, names) so mutations can strike every decoder.
fn rendered_message(qname: &Name, owners: &[Name]) -> Message {
    let mut msg = Message::dnssec_query(0x1cef, qname.clone(), RrType::A);
    msg.header.flags.qr = true;
    for (i, owner) in owners.iter().enumerate() {
        let rdata = match i % 3 {
            0 => RData::A(std::net::Ipv4Addr::new(192, 0, 2, (i % 250) as u8 + 1)),
            1 => RData::Txt(vec![format!("segment-{i}")]),
            _ => RData::Cname(qname.clone()),
        };
        msg.answers.push(Record::new(owner.clone(), 300, rdata));
    }
    msg
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Applies a seeded mutation: bit flips, byte overwrites, or a truncation
/// — the same corruption classes the netsim fault plane injects.
fn mutate(bytes: &[u8], salt: u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if out.is_empty() {
        return out;
    }
    match salt % 3 {
        0 => {
            // Flip 1–8 seeded bits anywhere in the datagram.
            for i in 0..=(salt % 8) {
                let roll = splitmix64(salt.wrapping_add(i));
                let pos = (roll as usize) % out.len();
                out[pos] ^= 1 << ((roll >> 32) % 8);
            }
        }
        1 => {
            // Overwrite a seeded run of bytes with seeded garbage.
            let start = (splitmix64(salt) as usize) % out.len();
            let len = 1 + (splitmix64(salt ^ 0xb0b) as usize) % 8;
            for (i, b) in out.iter_mut().skip(start).take(len).enumerate() {
                *b = (splitmix64(salt.wrapping_add(i as u64)) & 0xff) as u8;
            }
        }
        _ => {
            // Truncate at a seeded cut point.
            let cut = (splitmix64(salt) as usize) % out.len();
            out.truncate(cut);
        }
    }
    out
}

/// The CI gate: 10 000 seeded corruption cases over a fixed corpus, fully
/// deterministic (no proptest RNG involved), asserting the decoder neither
/// panics nor loops. Bit-flip cases can strike compression pointers; the
/// reader's jump bound keeps decoding finite.
#[test]
fn corruption_fuzz_fixed_seed_10k() {
    let qname = Name::parse("registry.example.dlv.isc.org.").unwrap();
    let owners: Vec<Name> =
        (0..4).map(|i| Name::parse(&format!("host-{i}.example.org.")).unwrap()).collect();
    let corpus = [
        rendered_message(&qname, &owners).to_bytes(),
        rendered_message(&qname, &[]).to_bytes(),
        Message::dnssec_query(0x5eed, qname.clone(), RrType::Dlv).to_bytes(),
    ];
    let mut decoded = 0u32;
    let mut rejected = 0u32;
    for case in 0..10_000u64 {
        let salt = splitmix64(0xdecade ^ case);
        let bytes = &corpus[(case % corpus.len() as u64) as usize];
        match Message::from_bytes(&mutate(bytes, salt)) {
            Ok(msg) => {
                decoded += 1;
                assert!(Message::from_bytes(&msg.to_bytes()).is_ok());
            }
            Err(_) => rejected += 1,
        }
    }
    assert_eq!(decoded + rejected, 10_000);
    assert!(rejected > 0, "some corruptions must be rejected");
    assert!(decoded > 0, "some corruptions must still decode");
}

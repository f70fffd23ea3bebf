//! Zone files in and out: parse an RFC 1035 master file, sign the zone,
//! serve it on the simulated network, resolve against it, and export the
//! packet capture — the full operator-facing surface of the library.
//!
//! ```text
//! cargo run --release -p lookaside --example zone_files
//! ```

#![expect(clippy::disallowed_macros, reason = "an example prints what it demonstrates")]

use std::net::Ipv4Addr;

use lookaside_netsim::{CaptureFilter, Network};
use lookaside_resolver::{BindConfig, RecursiveResolver, ResolverConfig, ResolverSetup};
use lookaside_server::AuthoritativeServer;
use lookaside_wire::ext::RemedyMode;
use lookaside_wire::{Name, RrType};
use lookaside_zone::{master, PublishedZone, SigningKeys, Zone};

const ROOT: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
const COM: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const CORP: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 1);

const CORP_ZONE: &str = r#"
$ORIGIN corp.com.
$TTL 3600
@       IN SOA ns1 hostmaster ( 2026070401 7200 3600 1209600 300 )
@       IN NS  ns1
ns1     IN A   10.1.0.1
@       IN A   192.0.2.80
www     IN A   192.0.2.80
api     IN A   192.0.2.81
mail    IN A   192.0.2.25
@       IN MX  10 mail
@       IN TXT "v=spf1 mx -all"
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Parse the operator's zone file.
    let origin = Name::parse("corp.com.")?;
    let corp = master::parse_zone(CORP_ZONE, &origin)?;
    println!("parsed corp.com.: {} RRsets", corp.rrset_count());

    // 2. Sign it and build the surrounding infrastructure (root -> com ->
    //    corp.com with a DS, so the chain of trust is complete).
    let root_keys = SigningKeys::from_seed(1);
    let com_keys = SigningKeys::from_seed(2);
    let corp_keys = SigningKeys::from_seed(3);

    let mut net = Network::new(7);
    net.set_capture_filter(CaptureFilter::All);

    let mut root = Zone::new(Name::root(), Name::parse("a.root-servers.net.")?);
    root.delegate(Name::parse("com.")?, &[(Name::parse("ns.com.")?, COM)])?;
    root.add_ds(
        Name::parse("com.")?,
        lookaside_crypto::ds_rdata(&Name::parse("com.")?, &com_keys.ksk.public()),
    );
    net.register(
        ROOT,
        "root",
        Box::new(AuthoritativeServer::single(PublishedZone::signed(
            root,
            &root_keys,
            0,
            0x7fff_ffff,
        ))),
    );

    let mut com = Zone::new(Name::parse("com.")?, Name::parse("ns.com.")?);
    com.add(Name::parse("ns.com.")?, 3600, lookaside_wire::RData::A(COM));
    com.delegate(origin.clone(), &[(Name::parse("ns1.corp.com.")?, CORP)])?;
    com.add_ds(origin.clone(), lookaside_crypto::ds_rdata(&origin, &corp_keys.ksk.public()));
    net.register(
        COM,
        "com",
        Box::new(AuthoritativeServer::single(PublishedZone::signed(
            com,
            &com_keys,
            0,
            0x7fff_ffff,
        ))),
    );

    net.register(
        CORP,
        "corp.com",
        Box::new(AuthoritativeServer::single(PublishedZone::signed(
            corp.clone(),
            &corp_keys,
            0,
            0x7fff_ffff,
        ))),
    );

    // 3. Resolve and validate through a correctly configured resolver.
    let mut resolver = RecursiveResolver::new(ResolverSetup {
        config: ResolverConfig::Bind(BindConfig::correct()),
        features: Default::default(),
        remedy: RemedyMode::None,
        root_hint: ROOT,
        root_anchor: root_keys.ksk.public(),
        dlv_apex: Name::parse("dlv.isc.org.")?,
        dlv_anchor: SigningKeys::from_seed(99).ksk.public(),
        salt: 5,
    });
    for (name, rrtype) in [
        ("www.corp.com.", RrType::A),
        ("corp.com.", RrType::Mx),
        ("corp.com.", RrType::Txt),
        ("nope.corp.com.", RrType::A),
    ] {
        let res = resolver.resolve(&mut net, &Name::parse(name)?, rrtype)?;
        println!(
            "  {name} {rrtype}: {} ({:?}, {} answers)",
            res.rcode,
            res.status,
            res.answers.len()
        );
    }

    // 4. Round-trip the zone through master-file text.
    let text = master::to_master(&corp);
    println!("\nserialised zone file ({} lines):", text.lines().count());
    for line in text.lines().take(6) {
        println!("  {line}");
    }

    // 5. Export the packet capture like the study's tcpdump step.
    let capture_text = net.capture().to_text();
    println!("\ncaptured {} packets; first three:", net.capture().len());
    for line in capture_text.lines().take(3) {
        println!("  {line}");
    }
    Ok(())
}

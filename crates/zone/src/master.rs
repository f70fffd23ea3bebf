//! RFC 1035 master-file ("zone file") parsing and serialisation.
//!
//! Lets users load real zone data into the simulator and inspect generated
//! zones (including the DLV registry) in the format every DNS operator
//! reads. Supported:
//!
//! * `$ORIGIN` and `$TTL` directives,
//! * relative names and the `@` apex shorthand,
//! * `;` comments,
//! * record types `A`, `AAAA`, `NS`, `CNAME`, `PTR`, `MX`, `TXT`, `SOA`,
//!   `DS`, `DLV`, and `DNSKEY` (the set the study traffics in),
//! * optional per-record TTL and the `IN` class token.
//!
//! Multi-line parentheses groups are supported for SOA records.

use std::fmt::Write as _;

use lookaside_wire::{Name, RData, RrSet, SoaData, WireError};

use crate::zone::Zone;
use crate::{ZoneError, DEFAULT_TTL};

/// Errors from master-file parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MasterError {
    /// A line could not be tokenised or had too few fields.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A name failed to parse.
    BadName {
        /// 1-based line number.
        line: usize,
        /// The underlying error.
        source: WireError,
    },
    /// The record data was invalid for its type.
    BadRdata {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A record fell outside the zone being built.
    Zone(ZoneError),
    /// No SOA record was found for the zone.
    MissingSoa,
}

impl std::fmt::Display for MasterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MasterError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            MasterError::BadName { line, source } => write!(f, "line {line}: {source}"),
            MasterError::BadRdata { line, message } => write!(f, "line {line}: {message}"),
            MasterError::Zone(e) => write!(f, "{e}"),
            MasterError::MissingSoa => write!(f, "zone file has no SOA record"),
        }
    }
}

impl std::error::Error for MasterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MasterError::BadName { source, .. } => Some(source),
            MasterError::Zone(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ZoneError> for MasterError {
    fn from(e: ZoneError) -> Self {
        MasterError::Zone(e)
    }
}

/// One parsed record line, before zone assembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MasterRecord {
    /// Owner name (absolute).
    pub name: Name,
    /// TTL.
    pub ttl: u32,
    /// Typed data.
    pub rdata: RData,
}

fn strip_comment(line: &str) -> &str {
    // A ';' inside a quoted TXT string does not start a comment.
    let mut in_quotes = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            ';' if !in_quotes => return line.get(..i).unwrap_or(line),
            _ => {}
        }
    }
    line
}

fn tokenize(line: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    for c in line.chars() {
        match c {
            '"' => {
                in_quotes = !in_quotes;
                cur.push(c);
            }
            c if c.is_whitespace() && !in_quotes => {
                if !cur.is_empty() {
                    tokens.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    tokens
}

/// Joins multi-line parenthesised groups into single logical lines,
/// tracking original line numbers.
fn logical_lines(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut pending: Option<(usize, String, i32)> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = strip_comment(raw);
        let opens = line.matches('(').count() as i32;
        let closes = line.matches(')').count() as i32;
        match pending.take() {
            None => {
                if opens > closes {
                    pending = Some((idx + 1, line.replace('(', " "), opens - closes));
                } else if !line.trim().is_empty() {
                    out.push((idx + 1, line.replace(['(', ')'], " ")));
                }
            }
            Some((start, mut acc, depth)) => {
                acc.push(' ');
                acc.push_str(&line.replace(['(', ')'], " "));
                let depth = depth + opens - closes;
                if depth <= 0 {
                    out.push((start, acc));
                } else {
                    pending = Some((start, acc, depth));
                }
            }
        }
    }
    if let Some((start, acc, _)) = pending {
        out.push((start, acc));
    }
    out
}

fn parse_name(token: &str, origin: &Name, line: usize) -> Result<Name, MasterError> {
    if token == "@" {
        return Ok(origin.clone());
    }
    if let Some(absolute) = token.strip_suffix('.') {
        return Name::parse(absolute).map_err(|source| MasterError::BadName { line, source });
    }
    // Relative: append the origin.
    let rel = Name::parse(token).map_err(|source| MasterError::BadName { line, source })?;
    rel.concat(origin).map_err(|source| MasterError::BadName { line, source })
}

fn hex_decode(s: &str, line: usize) -> Result<Vec<u8>, MasterError> {
    let bad = || MasterError::BadRdata { line, message: format!("bad hex string {s:?}") };
    // `from_str_radix` alone would also take a sign.
    if !s.len().is_multiple_of(2) || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(bad());
    }
    s.as_bytes()
        .chunks(2)
        .map(|pair| std::str::from_utf8(pair).ok().and_then(|h| u8::from_str_radix(h, 16).ok()))
        .collect::<Option<_>>()
        .ok_or_else(bad)
}

/// Hex-encodes bytes for serialisation.
fn hex_encode(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn parse_u<T: std::str::FromStr>(tok: &str, what: &str, line: usize) -> Result<T, MasterError> {
    tok.parse().map_err(|_| MasterError::BadRdata { line, message: format!("bad {what} {tok:?}") })
}

fn parse_rdata(
    rrtype: &str,
    args: &[String],
    origin: &Name,
    line: usize,
) -> Result<RData, MasterError> {
    // Extra fields are ignored; too few is an error.
    let too_few = |n: usize| MasterError::Syntax {
        line,
        message: format!("{rrtype} needs {n} fields, got {}", args.len()),
    };
    match rrtype {
        "A" => {
            let [addr, ..] = args else { return Err(too_few(1)) };
            let addr = addr.parse().map_err(|_| MasterError::BadRdata {
                line,
                message: format!("bad IPv4 address {addr:?}"),
            })?;
            Ok(RData::A(addr))
        }
        "AAAA" => {
            let [addr, ..] = args else { return Err(too_few(1)) };
            let addr = addr.parse().map_err(|_| MasterError::BadRdata {
                line,
                message: format!("bad IPv6 address {addr:?}"),
            })?;
            Ok(RData::Aaaa(addr))
        }
        "NS" => {
            let [target, ..] = args else { return Err(too_few(1)) };
            Ok(RData::Ns(parse_name(target, origin, line)?))
        }
        "CNAME" => {
            let [target, ..] = args else { return Err(too_few(1)) };
            Ok(RData::Cname(parse_name(target, origin, line)?))
        }
        "PTR" => {
            let [target, ..] = args else { return Err(too_few(1)) };
            Ok(RData::Ptr(parse_name(target, origin, line)?))
        }
        "MX" => {
            let [preference, exchange, ..] = args else { return Err(too_few(2)) };
            Ok(RData::Mx {
                preference: parse_u(preference, "MX preference", line)?,
                exchange: parse_name(exchange, origin, line)?,
            })
        }
        "TXT" => {
            if args.is_empty() {
                return Err(too_few(1));
            }
            let segments = args.iter().map(|s| s.trim_matches('"').to_string()).collect();
            Ok(RData::Txt(segments))
        }
        "SOA" => {
            let [mname, rname, serial, refresh, retry, expire, minimum, ..] = args else {
                return Err(too_few(7));
            };
            Ok(RData::Soa(SoaData {
                mname: parse_name(mname, origin, line)?,
                rname: parse_name(rname, origin, line)?,
                serial: parse_u(serial, "SOA serial", line)?,
                refresh: parse_u(refresh, "SOA refresh", line)?,
                retry: parse_u(retry, "SOA retry", line)?,
                expire: parse_u(expire, "SOA expire", line)?,
                minimum: parse_u(minimum, "SOA minimum", line)?,
            }))
        }
        "DS" | "DLV" => {
            let [key_tag, algorithm, digest_type, digest, ..] = args else {
                return Err(too_few(4));
            };
            let key_tag = parse_u(key_tag, "key tag", line)?;
            let algorithm = parse_u(algorithm, "algorithm", line)?;
            let digest_type = parse_u(digest_type, "digest type", line)?;
            let digest = hex_decode(digest, line)?;
            Ok(if rrtype == "DS" {
                RData::Ds { key_tag, algorithm, digest_type, digest }
            } else {
                RData::Dlv { key_tag, algorithm, digest_type, digest }
            })
        }
        "DNSKEY" => {
            let [flags, protocol, algorithm, public_key, ..] = args else {
                return Err(too_few(4));
            };
            Ok(RData::Dnskey {
                flags: parse_u(flags, "DNSKEY flags", line)?,
                protocol: parse_u(protocol, "DNSKEY protocol", line)?,
                algorithm: parse_u(algorithm, "DNSKEY algorithm", line)?,
                public_key: hex_decode(public_key, line)?,
            })
        }
        other => {
            Err(MasterError::Syntax { line, message: format!("unsupported record type {other:?}") })
        }
    }
}

/// Parses master-file text into records.
///
/// `default_origin` seeds `$ORIGIN` when the file does not set one.
///
/// # Errors
///
/// Returns the first [`MasterError`] encountered; parsing is strict.
pub fn parse_records(text: &str, default_origin: &Name) -> Result<Vec<MasterRecord>, MasterError> {
    let mut origin = default_origin.clone();
    let mut default_ttl = DEFAULT_TTL;
    let mut last_name: Option<Name> = None;
    let mut records = Vec::new();

    for (line_no, line) in logical_lines(text) {
        let started_with_space = line.starts_with(char::is_whitespace);
        let tokens = tokenize(&line);
        let Some(first) = tokens.first() else { continue };
        if let directive @ ("$ORIGIN" | "$TTL") = first.as_str() {
            let [_, arg] = tokens.as_slice() else {
                return Err(MasterError::Syntax {
                    line: line_no,
                    message: format!("{directive} needs one argument"),
                });
            };
            if directive == "$ORIGIN" {
                origin = Name::parse(arg)
                    .map_err(|source| MasterError::BadName { line: line_no, source })?;
            } else {
                default_ttl = parse_u(arg, "$TTL", line_no)?;
            }
            continue;
        }

        // Owner name: blank leading field repeats the previous owner.
        let mut idx = 0;
        let name = if started_with_space {
            last_name.clone().ok_or_else(|| MasterError::Syntax {
                line: line_no,
                message: "record with no owner and no previous owner".into(),
            })?
        } else {
            idx = 1;
            parse_name(first, &origin, line_no)?
        };
        last_name = Some(name.clone());

        // Optional TTL and class tokens, in either order.
        let mut ttl = default_ttl;
        while let Some(tok) = tokens.get(idx) {
            if tok == "IN" {
                idx += 1;
            } else if tok.bytes().all(|b| b.is_ascii_digit()) && idx + 1 < tokens.len() {
                ttl = parse_u(tok, "TTL", line_no)?;
                idx += 1;
            } else {
                break;
            }
        }
        let Some((rrtype, args)) = tokens.get(idx..).and_then(<[String]>::split_first) else {
            return Err(MasterError::Syntax {
                line: line_no,
                message: "missing record type".into(),
            });
        };
        let rdata = parse_rdata(&rrtype.to_uppercase(), args, &origin, line_no)?;
        records.push(MasterRecord { name, ttl, rdata });
    }
    Ok(records)
}

/// Parses master-file text directly into a [`Zone`].
///
/// # Example
///
/// ```
/// use lookaside_wire::Name;
/// use lookaside_zone::master::parse_zone;
///
/// let origin = Name::parse("example.com.")?;
/// let zone = parse_zone(
///     "@ IN SOA ns1 hostmaster 1 2 3 4 300\n@ IN NS ns1\nwww IN A 192.0.2.1\n",
///     &origin,
/// ).unwrap();
/// assert_eq!(zone.apex(), &origin);
/// # Ok::<(), lookaside_wire::WireError>(())
/// ```
///
/// The SOA record determines the apex; NS records at names below the apex
/// become delegations (without glue addresses — add those via
/// [`Zone::delegate`] if needed).
///
/// # Errors
///
/// Fails on parse errors, a missing SOA, or out-of-bailiwick records.
pub fn parse_zone(text: &str, default_origin: &Name) -> Result<Zone, MasterError> {
    let records = parse_records(text, default_origin)?;
    let soa = records
        .iter()
        .find_map(|r| match &r.rdata {
            RData::Soa(soa) => Some((r.name.clone(), soa.clone())),
            _ => None,
        })
        .ok_or(MasterError::MissingSoa)?;
    let (apex, soa_data) = soa;
    let mut zone = Zone::new(apex.clone(), soa_data.mname.clone());
    zone.set_soa(soa_data.clone());
    for record in records {
        match &record.rdata {
            RData::Soa(_) => continue,
            RData::Ns(host) => {
                if record.name == apex {
                    // Apex NS: Zone::new added the primary; add the rest.
                    if *host != soa_data.mname {
                        zone.try_add(record.name, record.ttl, record.rdata)?;
                    }
                } else {
                    zone.delegate(record.name.clone(), &[])?;
                    zone.try_add(record.name, record.ttl, record.rdata)?;
                }
            }
            _ => zone.try_add(record.name, record.ttl, record.rdata)?,
        }
    }
    Ok(zone)
}

fn rdata_text(rdata: &RData) -> Option<(&'static str, String)> {
    Some(match rdata {
        RData::A(a) => ("A", a.to_string()),
        RData::Aaaa(a) => ("AAAA", a.to_string()),
        RData::Ns(n) => ("NS", n.to_string()),
        RData::Cname(n) => ("CNAME", n.to_string()),
        RData::Ptr(n) => ("PTR", n.to_string()),
        RData::Mx { preference, exchange } => ("MX", format!("{preference} {exchange}")),
        RData::Txt(segments) => {
            ("TXT", segments.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(" "))
        }
        RData::Soa(soa) => (
            "SOA",
            format!(
                "{} {} {} {} {} {} {}",
                soa.mname, soa.rname, soa.serial, soa.refresh, soa.retry, soa.expire, soa.minimum
            ),
        ),
        RData::Ds { key_tag, algorithm, digest_type, digest } => {
            ("DS", format!("{key_tag} {algorithm} {digest_type} {}", hex_encode(digest)))
        }
        RData::Dlv { key_tag, algorithm, digest_type, digest } => {
            ("DLV", format!("{key_tag} {algorithm} {digest_type} {}", hex_encode(digest)))
        }
        RData::Dnskey { flags, protocol, algorithm, public_key } => {
            ("DNSKEY", format!("{flags} {protocol} {algorithm} {}", hex_encode(public_key)))
        }
        _ => return None,
    })
}

/// Serialises a zone to master-file text (records this module can parse;
/// RRSIG/NSEC are omitted — re-sign after loading).
pub fn to_master(zone: &Zone) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "$ORIGIN {}", zone.apex());
    let _ = writeln!(out, "$TTL {}", DEFAULT_TTL);
    for set in zone.iter() {
        for rdata in &set.rdatas {
            if let Some((rrtype, text)) = rdata_text(rdata) {
                let _ = writeln!(out, "{} {} IN {} {}", set.name, set.ttl, rrtype, text);
            }
        }
    }
    out
}

/// Expands parsed records into RRsets (grouping by owner and type).
pub fn group_records(records: Vec<MasterRecord>) -> Vec<RrSet> {
    let wire_records: Vec<lookaside_wire::Record> = records
        .into_iter()
        .filter_map(|r| {
            r.rdata.rrtype().map(|rrtype| lookaside_wire::Record {
                name: r.name,
                rrtype,
                class: lookaside_wire::RrClass::In,
                ttl: r.ttl,
                rdata: r.rdata,
            })
        })
        .collect();
    wire_records.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lookaside_wire::RrType;

    fn origin() -> Name {
        Name::parse("example.com.").unwrap()
    }

    const SAMPLE: &str = r#"
$ORIGIN example.com.
$TTL 3600
@   IN SOA ns1 hostmaster ( 2016020100 7200 3600
                            1209600 300 ) ; negative ttl 300
@       IN NS  ns1
ns1     IN A   192.0.2.53
www 600 IN A   192.0.2.1
www     IN A   192.0.2.2           ; second address
alias   IN CNAME www
@       IN MX  10 mail.example.com.
mail    IN A   192.0.2.25
@       IN TXT "dlv=1" "hello ; world"
sub     IN NS  ns1.sub
child   IN DS  12345 253 2 00ff
"#;

    #[test]
    fn parses_the_kitchen_sink() {
        let records = parse_records(SAMPLE, &origin()).unwrap();
        assert_eq!(records.len(), 11);
        let soa = &records[0];
        assert_eq!(soa.name, origin());
        let RData::Soa(soa) = &soa.rdata else { panic!("soa first") };
        assert_eq!(soa.serial, 2016020100);
        assert_eq!(soa.minimum, 300);
        // Relative vs absolute names.
        assert_eq!(records[2].name, Name::parse("ns1.example.com.").unwrap());
        // Per-record TTL override.
        assert_eq!(records[3].ttl, 600);
        assert_eq!(records[4].ttl, 3600);
        // Quoted TXT keeps the semicolon.
        let RData::Txt(segments) = &records[8].rdata else { panic!("txt") };
        assert_eq!(segments, &vec!["dlv=1".to_string(), "hello ; world".to_string()]);
    }

    #[test]
    fn parse_zone_keeps_soa_values() {
        let zone = parse_zone(SAMPLE, &origin()).unwrap();
        assert_eq!(zone.soa().serial, 2016020100);
        assert_eq!(zone.soa().refresh, 7200);
        assert_eq!(zone.soa().minimum, 300);
        assert_eq!(zone.soa().mname, Name::parse("ns1.example.com.").unwrap());
    }

    #[test]
    fn parse_zone_builds_delegations() {
        let zone = parse_zone(SAMPLE, &origin()).unwrap();
        assert_eq!(zone.apex(), &origin());
        assert!(zone.is_cut(&Name::parse("sub.example.com.").unwrap()));
        assert!(!zone.is_cut(&Name::parse("www.example.com.").unwrap()));
        assert_eq!(zone.soa().minimum, 300);
        let www = zone.rrset(&Name::parse("www.example.com.").unwrap(), RrType::A).unwrap();
        assert_eq!(www.len(), 2);
    }

    #[test]
    fn round_trips_through_master_text() {
        let zone = parse_zone(SAMPLE, &origin()).unwrap();
        let text = to_master(&zone);
        let back = parse_zone(&text, &origin()).unwrap();
        assert_eq!(back.rrset_count(), zone.rrset_count());
        for set in zone.iter() {
            if set.rrtype == RrType::Soa {
                continue; // rebuilt by Zone::new with parsed values
            }
            let again = back
                .rrset(&set.name, set.rrtype)
                .unwrap_or_else(|| panic!("{} {} lost in round trip", set.name, set.rrtype));
            assert_eq!(again.rdatas.len(), set.rdatas.len());
        }
    }

    #[test]
    fn missing_soa_is_an_error() {
        let err = parse_zone("www IN A 192.0.2.1\n", &origin()).unwrap_err();
        assert_eq!(err, MasterError::MissingSoa);
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let err = parse_records("\nwww IN A\n", &origin()).unwrap_err();
        match err {
            MasterError::Syntax { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bad_values_are_rejected() {
        assert!(parse_records("www IN A not-an-ip\n", &origin()).is_err());
        assert!(parse_records("www IN DS 1 2 3 xyz\n", &origin()).is_err());
        assert!(parse_records("www IN DS 1 2 3 +f\n", &origin()).is_err());
        assert!(matches!(
            parse_records("mail IN MX 10\n", &origin()),
            Err(MasterError::Syntax { line: 1, .. })
        ));
        assert!(parse_records("www IN WEIRD data\n", &origin()).is_err());
        assert!(parse_records("$TTL\n", &origin()).is_err());
    }

    #[test]
    fn blank_owner_repeats_previous() {
        let text = "www IN A 192.0.2.1\n    IN A 192.0.2.2\n";
        let records = parse_records(text, &origin()).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].name, records[1].name);
    }

    #[test]
    fn group_records_merges_rrsets() {
        let text = "www IN A 192.0.2.1\nwww IN A 192.0.2.2\nmail IN A 192.0.2.3\n";
        let sets = group_records(parse_records(text, &origin()).unwrap());
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[0].len(), 2);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "; pure comment\n\n  \nwww IN A 192.0.2.1 ; trailing\n";
        let records = parse_records(text, &origin()).unwrap();
        assert_eq!(records.len(), 1);
    }
}

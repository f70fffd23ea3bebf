#![expect(
    clippy::indexing_slicing,
    reason = "rdata slices come from Reader::read_bytes, which errors on short input before the slice is formed; fuzz-backed by the ci.sh corruption gate"
)]

use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

use serde::{Deserialize, Serialize};

use crate::codec::{Reader, Writer};
use crate::{Name, RrType, TypeBitmap, WireError};

/// SOA record data (RFC 1035 §3.3.13).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SoaData {
    /// Primary name server.
    pub mname: Name,
    /// Responsible mailbox, encoded as a name.
    pub rname: Name,
    /// Zone serial.
    pub serial: u32,
    /// Refresh interval, seconds.
    pub refresh: u32,
    /// Retry interval, seconds.
    pub retry: u32,
    /// Expire interval, seconds.
    pub expire: u32,
    /// Negative-caching TTL (RFC 2308) — bounds how long the aggressive
    /// negative cache may reuse NSEC proofs.
    pub minimum: u32,
}

/// Typed resource-record data.
///
/// `Ds` and `Dlv` share the same layout (RFC 4431 defines DLV RDATA as
/// identical to DS), which is why both carry the same fields.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum RData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Authoritative name server.
    Ns(Name),
    /// Alias target.
    Cname(Name),
    /// Reverse pointer.
    Ptr(Name),
    /// Start of authority.
    Soa(SoaData),
    /// Mail exchanger.
    Mx {
        /// Preference value; lower is preferred.
        preference: u16,
        /// Exchange host.
        exchange: Name,
    },
    /// Text strings. Carries the `dlv=1` / `dlv=0` remedy signal (§6.2.1).
    Txt(Vec<String>),
    /// DNSSEC public key.
    Dnskey {
        /// Flags; bit 0x0100 = zone key, 0x0001 = SEP (KSK).
        flags: u16,
        /// Always 3 for DNSSEC.
        protocol: u8,
        /// Algorithm number.
        algorithm: u8,
        /// Public key material.
        public_key: Vec<u8>,
    },
    /// Delegation signer.
    Ds {
        /// Tag of the key this digest commits to.
        key_tag: u16,
        /// Algorithm of that key.
        algorithm: u8,
        /// Digest algorithm identifier.
        digest_type: u8,
        /// Digest of owner name + DNSKEY RDATA.
        digest: Vec<u8>,
    },
    /// DNSSEC look-aside validation record: DS-shaped, published in a DLV
    /// registry instead of the parent zone (RFC 4431).
    Dlv {
        /// Tag of the key this digest commits to.
        key_tag: u16,
        /// Algorithm of that key.
        algorithm: u8,
        /// Digest algorithm identifier.
        digest_type: u8,
        /// Digest of owner name + DNSKEY RDATA.
        digest: Vec<u8>,
    },
    /// Signature over an RRset (RFC 4034 §3).
    Rrsig {
        /// Type of the covered RRset.
        type_covered: RrType,
        /// Signing algorithm.
        algorithm: u8,
        /// Label count of the owner name.
        labels: u8,
        /// Original TTL of the covered RRset.
        original_ttl: u32,
        /// Expiration time, seconds.
        expiration: u32,
        /// Inception time, seconds.
        inception: u32,
        /// Tag of the signing key.
        key_tag: u16,
        /// Name of the signing zone.
        signer_name: Name,
        /// Signature bytes.
        signature: Vec<u8>,
    },
    /// Authenticated denial of existence (RFC 4034 §4).
    Nsec {
        /// Next owner name in canonical order.
        next_name: Name,
        /// Types present at this owner name.
        types: TypeBitmap,
    },
    /// Hashed authenticated denial of existence (RFC 5155). §7.3 of the
    /// paper discusses the DLV trade-off: NSEC3 resists zone enumeration
    /// but forfeits aggressive negative caching, so every query hits the
    /// DLV server.
    Nsec3 {
        /// Hash algorithm identifier (1 = SHA-1 in the RFC; this simulator
        /// computes a truncated SHA-256 and keeps the identifier).
        hash_algorithm: u8,
        /// Flags (opt-out etc.).
        flags: u8,
        /// Extra hash iterations.
        iterations: u16,
        /// Hash salt.
        salt: Vec<u8>,
        /// Hash of the next owner in hash order.
        next_hashed: Vec<u8>,
        /// Types present at the (unhashed) owner name.
        types: TypeBitmap,
    },
    /// Uninterpreted RDATA for types the simulator does not model.
    Unknown(Vec<u8>),
}

impl RData {
    /// The record type this data corresponds to.
    ///
    /// `Unknown` data has no intrinsic type; the surrounding [`crate::Record`]
    /// carries it.
    pub fn rrtype(&self) -> Option<RrType> {
        Some(match self {
            RData::A(_) => RrType::A,
            RData::Aaaa(_) => RrType::Aaaa,
            RData::Ns(_) => RrType::Ns,
            RData::Cname(_) => RrType::Cname,
            RData::Ptr(_) => RrType::Ptr,
            RData::Soa(_) => RrType::Soa,
            RData::Mx { .. } => RrType::Mx,
            RData::Txt(_) => RrType::Txt,
            RData::Dnskey { .. } => RrType::Dnskey,
            RData::Ds { .. } => RrType::Ds,
            RData::Dlv { .. } => RrType::Dlv,
            RData::Rrsig { .. } => RrType::Rrsig,
            RData::Nsec { .. } => RrType::Nsec,
            RData::Nsec3 { .. } => RrType::Nsec3,
            RData::Unknown(_) => return None,
        })
    }

    /// Encodes the RDATA (without the length prefix), appending to `w`.
    ///
    /// Names inside RDATA are written uncompressed, as RFC 3597 requires for
    /// unknown types and RFC 4034 §6.2 requires for canonical form; doing so
    /// uniformly keeps signature input identical to wire output.
    pub fn encode(&self, w: &mut Writer) {
        match self {
            RData::A(addr) => w.write_bytes(&addr.octets()),
            RData::Aaaa(addr) => w.write_bytes(&addr.octets()),
            RData::Ns(name) | RData::Cname(name) | RData::Ptr(name) => {
                w.write_name_uncompressed(name)
            }
            RData::Soa(soa) => {
                w.write_name_uncompressed(&soa.mname);
                w.write_name_uncompressed(&soa.rname);
                w.write_u32(soa.serial);
                w.write_u32(soa.refresh);
                w.write_u32(soa.retry);
                w.write_u32(soa.expire);
                w.write_u32(soa.minimum);
            }
            RData::Mx { preference, exchange } => {
                w.write_u16(*preference);
                w.write_name_uncompressed(exchange);
            }
            RData::Txt(segments) => {
                for seg in segments {
                    let bytes = seg.as_bytes();
                    debug_assert!(bytes.len() <= 255);
                    w.write_u8(bytes.len().min(255) as u8);
                    w.write_bytes(&bytes[..bytes.len().min(255)]);
                }
            }
            RData::Dnskey { flags, protocol, algorithm, public_key } => {
                w.write_u16(*flags);
                w.write_u8(*protocol);
                w.write_u8(*algorithm);
                w.write_bytes(public_key);
            }
            RData::Ds { key_tag, algorithm, digest_type, digest }
            | RData::Dlv { key_tag, algorithm, digest_type, digest } => {
                w.write_u16(*key_tag);
                w.write_u8(*algorithm);
                w.write_u8(*digest_type);
                w.write_bytes(digest);
            }
            RData::Rrsig {
                type_covered,
                algorithm,
                labels,
                original_ttl,
                expiration,
                inception,
                key_tag,
                signer_name,
                signature,
            } => {
                w.write_u16(type_covered.code());
                w.write_u8(*algorithm);
                w.write_u8(*labels);
                w.write_u32(*original_ttl);
                w.write_u32(*expiration);
                w.write_u32(*inception);
                w.write_u16(*key_tag);
                w.write_name_uncompressed(signer_name);
                w.write_bytes(signature);
            }
            RData::Nsec { next_name, types } => {
                w.write_name_uncompressed(next_name);
                let mut tmp = Vec::new();
                types.encode(&mut tmp);
                w.write_bytes(&tmp);
            }
            RData::Nsec3 { hash_algorithm, flags, iterations, salt, next_hashed, types } => {
                w.write_u8(*hash_algorithm);
                w.write_u8(*flags);
                w.write_u16(*iterations);
                debug_assert!(salt.len() <= 255 && next_hashed.len() <= 255);
                w.write_u8(salt.len().min(255) as u8);
                w.write_bytes(&salt[..salt.len().min(255)]);
                w.write_u8(next_hashed.len().min(255) as u8);
                w.write_bytes(&next_hashed[..next_hashed.len().min(255)]);
                let mut tmp = Vec::new();
                types.encode(&mut tmp);
                w.write_bytes(&tmp);
            }
            RData::Unknown(bytes) => w.write_bytes(bytes),
        }
    }

    /// Decodes RDATA of type `rrtype` occupying `rdlen` octets at the
    /// reader's position.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the RDATA is truncated, malformed, or its
    /// decoded size disagrees with `rdlen`.
    pub fn decode(rrtype: RrType, r: &mut Reader<'_>, rdlen: usize) -> Result<Self, WireError> {
        let start = r.position();
        let end = start + rdlen;
        let data = match rrtype {
            RrType::A => {
                let b = r.read_bytes(4, "A rdata")?;
                RData::A(Ipv4Addr::new(b[0], b[1], b[2], b[3]))
            }
            RrType::Aaaa => {
                let b = r.read_bytes(16, "AAAA rdata")?;
                let mut oct = [0u8; 16];
                oct.copy_from_slice(b);
                RData::Aaaa(Ipv6Addr::from(oct))
            }
            RrType::Ns => RData::Ns(r.read_name()?),
            RrType::Cname => RData::Cname(r.read_name()?),
            RrType::Ptr => RData::Ptr(r.read_name()?),
            RrType::Soa => RData::Soa(SoaData {
                mname: r.read_name()?,
                rname: r.read_name()?,
                serial: r.read_u32("SOA serial")?,
                refresh: r.read_u32("SOA refresh")?,
                retry: r.read_u32("SOA retry")?,
                expire: r.read_u32("SOA expire")?,
                minimum: r.read_u32("SOA minimum")?,
            }),
            RrType::Mx => {
                RData::Mx { preference: r.read_u16("MX preference")?, exchange: r.read_name()? }
            }
            RrType::Txt => {
                let mut segments = Vec::new();
                while r.position() < end {
                    let len = r.read_u8("TXT length")? as usize;
                    let bytes = r.read_bytes(len, "TXT segment")?;
                    segments.push(String::from_utf8_lossy(bytes).into_owned());
                }
                RData::Txt(segments)
            }
            RrType::Dnskey => {
                let flags = r.read_u16("DNSKEY flags")?;
                let protocol = r.read_u8("DNSKEY protocol")?;
                let algorithm = r.read_u8("DNSKEY algorithm")?;
                let key_len = end
                    .checked_sub(r.position())
                    .ok_or(WireError::Truncated { context: "DNSKEY key" })?;
                let public_key = r.read_bytes(key_len, "DNSKEY key")?.to_vec();
                RData::Dnskey { flags, protocol, algorithm, public_key }
            }
            RrType::Ds | RrType::Dlv => {
                let key_tag = r.read_u16("DS key tag")?;
                let algorithm = r.read_u8("DS algorithm")?;
                let digest_type = r.read_u8("DS digest type")?;
                let digest_len = end
                    .checked_sub(r.position())
                    .ok_or(WireError::Truncated { context: "DS digest" })?;
                let digest = r.read_bytes(digest_len, "DS digest")?.to_vec();
                if rrtype == RrType::Ds {
                    RData::Ds { key_tag, algorithm, digest_type, digest }
                } else {
                    RData::Dlv { key_tag, algorithm, digest_type, digest }
                }
            }
            RrType::Rrsig => {
                let type_covered = RrType::from_code(r.read_u16("RRSIG type covered")?);
                let algorithm = r.read_u8("RRSIG algorithm")?;
                let labels = r.read_u8("RRSIG labels")?;
                let original_ttl = r.read_u32("RRSIG original ttl")?;
                let expiration = r.read_u32("RRSIG expiration")?;
                let inception = r.read_u32("RRSIG inception")?;
                let key_tag = r.read_u16("RRSIG key tag")?;
                let signer_name = r.read_name()?;
                let sig_len = end
                    .checked_sub(r.position())
                    .ok_or(WireError::Truncated { context: "RRSIG signature" })?;
                let signature = r.read_bytes(sig_len, "RRSIG signature")?.to_vec();
                RData::Rrsig {
                    type_covered,
                    algorithm,
                    labels,
                    original_ttl,
                    expiration,
                    inception,
                    key_tag,
                    signer_name,
                    signature,
                }
            }
            RrType::Nsec => {
                let next_name = r.read_name()?;
                let bm_len = end
                    .checked_sub(r.position())
                    .ok_or(WireError::Truncated { context: "NSEC bitmap" })?;
                let bytes = r.read_bytes(bm_len, "NSEC bitmap")?;
                RData::Nsec { next_name, types: TypeBitmap::decode(bytes)? }
            }
            RrType::Nsec3 => {
                let hash_algorithm = r.read_u8("NSEC3 hash algorithm")?;
                let flags = r.read_u8("NSEC3 flags")?;
                let iterations = r.read_u16("NSEC3 iterations")?;
                let salt_len = r.read_u8("NSEC3 salt length")? as usize;
                let salt = r.read_bytes(salt_len, "NSEC3 salt")?.to_vec();
                let hash_len = r.read_u8("NSEC3 hash length")? as usize;
                let next_hashed = r.read_bytes(hash_len, "NSEC3 hash")?.to_vec();
                let bm_len = end
                    .checked_sub(r.position())
                    .ok_or(WireError::Truncated { context: "NSEC3 bitmap" })?;
                let bytes = r.read_bytes(bm_len, "NSEC3 bitmap")?;
                RData::Nsec3 {
                    hash_algorithm,
                    flags,
                    iterations,
                    salt,
                    next_hashed,
                    types: TypeBitmap::decode(bytes)?,
                }
            }
            _ => RData::Unknown(r.read_bytes(rdlen, "unknown rdata")?.to_vec()),
        };
        let consumed = r.position() - start;
        if consumed != rdlen {
            return Err(WireError::BadRdataLength { rrtype, declared: rdlen, consumed });
        }
        Ok(data)
    }
}

impl fmt::Display for RData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RData::A(a) => write!(f, "{a}"),
            RData::Aaaa(a) => write!(f, "{a}"),
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => write!(f, "{n}"),
            RData::Soa(s) => write!(f, "{} {} {}", s.mname, s.rname, s.serial),
            RData::Mx { preference, exchange } => write!(f, "{preference} {exchange}"),
            RData::Txt(segs) => {
                for (i, s) in segs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{s:?}")?;
                }
                Ok(())
            }
            RData::Dnskey { flags, algorithm, .. } => {
                write!(f, "DNSKEY flags={flags:#06x} alg={algorithm}")
            }
            RData::Ds { key_tag, algorithm, .. } => write!(f, "DS tag={key_tag} alg={algorithm}"),
            RData::Dlv { key_tag, algorithm, .. } => {
                write!(f, "DLV tag={key_tag} alg={algorithm}")
            }
            RData::Rrsig { type_covered, key_tag, signer_name, .. } => {
                write!(f, "RRSIG {type_covered} tag={key_tag} signer={signer_name}")
            }
            RData::Nsec { next_name, types } => {
                write!(f, "NSEC {next_name} ({} types)", types.len())
            }
            RData::Nsec3 { iterations, next_hashed, types, .. } => {
                write!(
                    f,
                    "NSEC3 iter={iterations} next={}B ({} types)",
                    next_hashed.len(),
                    types.len()
                )
            }
            RData::Unknown(b) => write!(f, "\\# {}", b.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(rdata: RData) {
        let rrtype = rdata.rrtype().unwrap();
        let mut w = Writer::new();
        rdata.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = RData::decode(rrtype, &mut r, bytes.len()).unwrap();
        assert_eq!(back, rdata);
    }

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn round_trip_every_variant() {
        round_trip(RData::A(Ipv4Addr::new(192, 0, 2, 1)));
        round_trip(RData::Aaaa("2001:db8::1".parse().unwrap()));
        round_trip(RData::Ns(name("ns1.example.com")));
        round_trip(RData::Cname(name("alias.example.com")));
        round_trip(RData::Ptr(name("host.example.com")));
        round_trip(RData::Soa(SoaData {
            mname: name("ns1.example.com"),
            rname: name("hostmaster.example.com"),
            serial: 20160201,
            refresh: 7200,
            retry: 3600,
            expire: 1209600,
            minimum: 3600,
        }));
        round_trip(RData::Mx { preference: 10, exchange: name("mail.example.com") });
        round_trip(RData::Txt(vec!["dlv=1".into(), "v=spf1 -all".into()]));
        round_trip(RData::Dnskey {
            flags: 0x0101,
            protocol: 3,
            algorithm: 250,
            public_key: vec![1, 2, 3, 4, 5, 6, 7, 8],
        });
        round_trip(RData::Ds {
            key_tag: 12345,
            algorithm: 250,
            digest_type: 2,
            digest: vec![0xaa; 32],
        });
        round_trip(RData::Dlv {
            key_tag: 54321,
            algorithm: 250,
            digest_type: 2,
            digest: vec![0xbb; 32],
        });
        round_trip(RData::Rrsig {
            type_covered: RrType::A,
            algorithm: 250,
            labels: 2,
            original_ttl: 3600,
            expiration: 1_500_000_000,
            inception: 1_400_000_000,
            key_tag: 777,
            signer_name: name("example.com"),
            signature: vec![9; 16],
        });
        round_trip(RData::Nsec {
            next_name: name("b.example.com"),
            types: TypeBitmap::from_types([RrType::A, RrType::Rrsig, RrType::Nsec]),
        });
        round_trip(RData::Nsec3 {
            hash_algorithm: 1,
            flags: 0,
            iterations: 5,
            salt: vec![0xde, 0xad],
            next_hashed: vec![0x11; 20],
            types: TypeBitmap::from_types([RrType::Dlv, RrType::Rrsig]),
        });
    }

    #[test]
    fn nsec3_empty_salt_round_trips() {
        round_trip(RData::Nsec3 {
            hash_algorithm: 1,
            flags: 1,
            iterations: 0,
            salt: vec![],
            next_hashed: vec![0x22; 20],
            types: TypeBitmap::new(),
        });
    }

    #[test]
    fn empty_txt_round_trips() {
        round_trip(RData::Txt(vec![]));
    }

    #[test]
    fn decode_rejects_length_mismatch() {
        let mut w = Writer::new();
        RData::A(Ipv4Addr::LOCALHOST).encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        // Declared rdlen is 3 but an A record consumes 4.
        assert!(RData::decode(RrType::A, &mut r, 3).is_err());
    }

    #[test]
    fn decode_truncated_soa() {
        let bytes = [0u8; 6];
        let mut r = Reader::new(&bytes);
        assert!(RData::decode(RrType::Soa, &mut r, 6).is_err());
    }

    #[test]
    fn ds_and_dlv_decode_to_distinct_variants() {
        let ds = RData::Ds { key_tag: 7, algorithm: 1, digest_type: 2, digest: vec![1, 2] };
        let mut w = Writer::new();
        ds.encode(&mut w);
        let bytes = w.into_bytes();
        let as_dlv = RData::decode(RrType::Dlv, &mut Reader::new(&bytes), bytes.len()).unwrap();
        assert!(matches!(as_dlv, RData::Dlv { key_tag: 7, .. }));
    }

    #[test]
    fn unknown_type_passes_through() {
        let bytes = vec![1, 2, 3];
        let mut r = Reader::new(&bytes);
        let d = RData::decode(RrType::Unknown(999), &mut r, 3).unwrap();
        assert_eq!(d, RData::Unknown(vec![1, 2, 3]));
        assert_eq!(d.rrtype(), None);
    }
}

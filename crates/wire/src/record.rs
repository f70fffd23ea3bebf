use std::fmt;

use serde::{Deserialize, Serialize};

use crate::codec::{Reader, Writer};
use crate::{Name, RData, RrClass, RrType, WireError};

/// A single resource record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Record {
    /// Owner name.
    pub name: Name,
    /// Record type. Kept explicitly so `RData::Unknown` records preserve
    /// their type code.
    pub rrtype: RrType,
    /// Record class.
    pub class: RrClass,
    /// Time to live, seconds.
    pub ttl: u32,
    /// Typed record data.
    pub rdata: RData,
}

impl Record {
    /// Creates an `IN`-class record, taking the type from the data.
    ///
    /// # Panics
    ///
    /// Panics if `rdata` is [`RData::Unknown`]; use the struct literal and
    /// supply the type code explicitly for unknown data.
    pub fn new(name: Name, ttl: u32, rdata: RData) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "documented contract panic (see \"# Panics\" above): RData::Unknown must use the struct literal"
        )]
        let rrtype = rdata
            .rrtype()
            .expect("Record::new requires typed rdata; construct unknown records explicitly");
        Record { name, rrtype, class: RrClass::In, ttl, rdata }
    }

    /// Encodes the record, appending to `w`. The owner name may be
    /// compressed against earlier names in the message.
    pub fn encode(&self, w: &mut Writer) {
        w.write_name(&self.name);
        w.write_u16(self.rrtype.code());
        w.write_u16(self.class.code());
        w.write_u32(self.ttl);
        let len_pos = w.reserve_u16();
        let before = w.len();
        self.rdata.encode(w);
        let rdlen = w.len() - before;
        w.patch_u16(len_pos, rdlen as u16);
    }

    /// Decodes one record at the reader's position.
    ///
    /// # Errors
    ///
    /// Propagates any [`WireError`] from name or RDATA decoding.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let name = r.read_name()?;
        let rrtype = RrType::from_code(r.read_u16("record type")?);
        let class = RrClass::from_code(r.read_u16("record class")?);
        let ttl = r.read_u32("record ttl")?;
        let rdlen = r.read_u16("rdata length")? as usize;
        let rdata = RData::decode(rrtype, r, rdlen)?;
        Ok(Record { name, rrtype, class, ttl, rdata })
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} {} {}", self.name, self.ttl, self.class, self.rrtype, self.rdata)
    }
}

/// A set of records sharing an owner name, type, and class (RFC 2181 §5).
///
/// RRsets are the unit of DNSSEC signing: one RRSIG covers one RRset, and
/// caches store whole RRsets.
///
/// # Example
///
/// ```
/// use lookaside_wire::{Name, RData, RrSet};
///
/// let mut set = RrSet::single(
///     Name::parse("example.com.")?,
///     300,
///     RData::A("192.0.2.1".parse().unwrap()),
/// );
/// set.push(RData::A("192.0.2.2".parse().unwrap()));
/// assert_eq!(set.len(), 2);
/// assert_eq!(set.to_records().len(), 2);
/// # Ok::<(), lookaside_wire::WireError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RrSet {
    /// Owner name.
    pub name: Name,
    /// Set type.
    pub rrtype: RrType,
    /// TTL shared by all members.
    pub ttl: u32,
    /// The member data, in insertion order.
    pub rdatas: Vec<RData>,
}

impl RrSet {
    /// Creates an RRset with a single member.
    pub fn single(name: Name, ttl: u32, rdata: RData) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "contract panic mirroring Record::new: untyped rdata must construct the set explicitly"
        )]
        let rrtype = rdata.rrtype().expect("RrSet::single requires typed rdata");
        RrSet { name, rrtype, ttl, rdatas: vec![rdata] }
    }

    /// Creates an empty RRset of the given type.
    pub fn empty(name: Name, rrtype: RrType, ttl: u32) -> Self {
        RrSet { name, rrtype, ttl, rdatas: Vec::new() }
    }

    /// Adds a member.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the member's type disagrees with the set's.
    pub fn push(&mut self, rdata: RData) {
        debug_assert_eq!(rdata.rrtype(), Some(self.rrtype));
        self.rdatas.push(rdata);
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.rdatas.len()
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.rdatas.is_empty()
    }

    /// Expands the set into individual [`Record`]s.
    pub fn to_records(&self) -> Vec<Record> {
        let mut out = Vec::with_capacity(self.rdatas.len());
        self.append_records_into(&mut out);
        out
    }

    /// Appends the set's members to `out` as individual [`Record`]s — the
    /// buffer-reusing form of [`RrSet::to_records`], for callers that hold
    /// a scratch `Vec` across queries (the streaming steady state).
    pub fn append_records_into(&self, out: &mut Vec<Record>) {
        out.reserve(self.rdatas.len());
        for rd in &self.rdatas {
            out.push(Record {
                name: self.name.clone(),
                rrtype: self.rrtype,
                class: RrClass::In,
                ttl: self.ttl,
                rdata: rd.clone(),
            });
        }
    }

    /// The canonical signing input for this RRset (RFC 4034 §3.1.8.1):
    /// each member as `owner | type | class | ttl | rdlen | rdata`, with the
    /// members sorted by their canonical RDATA encoding.
    pub fn canonical_signing_input(&self) -> Vec<u8> {
        let mut encoded: Vec<Vec<u8>> = self
            .rdatas
            .iter()
            .map(|rd| {
                let mut w = Writer::new();
                rd.encode(&mut w);
                w.into_bytes()
            })
            .collect();
        encoded.sort();
        let mut out = Vec::new();
        for rdata in encoded {
            self.name.encode_uncompressed(&mut out);
            out.extend_from_slice(&self.rrtype.code().to_be_bytes());
            out.extend_from_slice(&RrClass::In.code().to_be_bytes());
            out.extend_from_slice(&self.ttl.to_be_bytes());
            out.extend_from_slice(&(rdata.len() as u16).to_be_bytes());
            out.extend_from_slice(&rdata);
        }
        out
    }
}

impl FromIterator<Record> for Vec<RrSet> {
    fn from_iter<I: IntoIterator<Item = Record>>(iter: I) -> Self {
        let mut sets: Vec<RrSet> = Vec::new();
        for rec in iter {
            if let Some(set) =
                sets.iter_mut().find(|s| s.name == rec.name && s.rrtype == rec.rrtype)
            {
                set.rdatas.push(rec.rdata);
            } else {
                sets.push(RrSet {
                    name: rec.name,
                    rrtype: rec.rrtype,
                    ttl: rec.ttl,
                    rdatas: vec![rec.rdata],
                });
            }
        }
        sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn a(s: &str, last: u8) -> Record {
        Record::new(name(s), 300, RData::A(Ipv4Addr::new(192, 0, 2, last)))
    }

    #[test]
    fn record_round_trip() {
        let rec = a("www.example.com", 1);
        let mut w = Writer::new();
        rec.encode(&mut w);
        let bytes = w.into_bytes();
        let back = Record::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn record_display_is_zone_file_like() {
        let rec = a("www.example.com", 1);
        assert_eq!(rec.to_string(), "www.example.com. 300 IN A 192.0.2.1");
    }

    #[test]
    fn rrset_groups_records() {
        let records = vec![a("x.com", 1), a("x.com", 2), a("y.com", 1)];
        let sets: Vec<RrSet> = records.into_iter().collect();
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[0].len(), 2);
        assert_eq!(sets[1].len(), 1);
    }

    #[test]
    fn canonical_signing_input_is_order_independent() {
        let mut s1 = RrSet::single(name("x.com"), 60, RData::A(Ipv4Addr::new(192, 0, 2, 9)));
        s1.push(RData::A(Ipv4Addr::new(192, 0, 2, 1)));
        let mut s2 = RrSet::single(name("x.com"), 60, RData::A(Ipv4Addr::new(192, 0, 2, 1)));
        s2.push(RData::A(Ipv4Addr::new(192, 0, 2, 9)));
        assert_eq!(s1.canonical_signing_input(), s2.canonical_signing_input());
    }

    #[test]
    fn canonical_signing_input_binds_name_and_type() {
        let s1 = RrSet::single(name("x.com"), 60, RData::A(Ipv4Addr::new(192, 0, 2, 1)));
        let s2 = RrSet::single(name("y.com"), 60, RData::A(Ipv4Addr::new(192, 0, 2, 1)));
        assert_ne!(s1.canonical_signing_input(), s2.canonical_signing_input());
    }

    #[test]
    fn to_records_preserves_fields() {
        let mut set = RrSet::single(name("x.com"), 60, RData::A(Ipv4Addr::new(192, 0, 2, 1)));
        set.push(RData::A(Ipv4Addr::new(192, 0, 2, 2)));
        let recs = set.to_records();
        assert_eq!(recs.len(), 2);
        assert!(recs.iter().all(|r| r.name == name("x.com") && r.ttl == 60));
    }
}

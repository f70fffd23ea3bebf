//! Domain names in a compact, allocation-averse representation.
//!
//! A [`Name`] stores its labels as one contiguous run of lower-cased,
//! length-prefixed wire octets (the RFC 1035 §3.1 encoding minus the root
//! octet). Short names — the overwhelming majority of hostnames in the
//! study's corpora — live inline on the stack; longer names share an
//! `Arc<[u8]>` buffer, so `Clone` is O(1) either way and `parent()` /
//! [`Name::suffix`] on a shared name reuse the same buffer at a later
//! offset without copying. Borrowed views ([`LabelRef`], [`NameRef`],
//! [`Labels`]) let callers walk labels, compare canonically, and encode
//! without touching the heap, and a [`NameTable`] interns heap-backed
//! names per worker so hot paths hand out shared handles.

#![expect(
    clippy::indexing_slicing,
    reason = "all indices derive from label offsets validated when the Name was constructed (Repr invariants), and the corruption fuzz gate exercises the decode paths with arbitrary bytes"
)]

use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::WireError;

/// Maximum octets in a single label (RFC 1035 §2.3.4).
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum octets of a name in wire form, including the root byte.
pub const MAX_NAME_LEN: usize = 255;

/// Wire octets (excluding the root byte) that fit in a [`Name`] without a
/// heap allocation. `www.example.com` is 16 octets; 22 keeps the whole
/// `Name` within 32 bytes.
const INLINE_LEN: usize = 22;

/// Most labels a legal name can carry: each costs at least two wire octets.
pub(crate) const MAX_LABELS: usize = MAX_NAME_LEN / 2;

fn fmt_label_bytes(f: &mut fmt::Formatter<'_>, bytes: &[u8]) -> fmt::Result {
    for &b in bytes {
        match b {
            b'.' | b'\\' => write!(f, "\\{}", b as char)?,
            0x21..=0x7e => write!(f, "{}", b as char)?,
            _ => write!(f, "\\{:03}", b)?,
        }
    }
    Ok(())
}

/// One label of a domain name, owned.
///
/// Labels are stored lower-cased: DNS name comparison is case-insensitive
/// (RFC 1035 §2.3.3, RFC 4343) and the study never depends on preserved case,
/// so normalising at construction keeps `Eq`/`Ord`/`Hash` cheap and
/// consistent. Hot paths use the borrowed [`LabelRef`] instead.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Label(Box<[u8]>);

impl Label {
    /// Creates a label from raw octets, lower-casing ASCII letters.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::LabelTooLong`] if `bytes` exceeds 63 octets and
    /// [`WireError::BadNameSyntax`] if it is empty.
    pub fn new(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.is_empty() {
            return Err(WireError::BadNameSyntax("empty label".into()));
        }
        if bytes.len() > MAX_LABEL_LEN {
            return Err(WireError::LabelTooLong(bytes.len()));
        }
        Ok(Label(bytes.to_ascii_lowercase().into_boxed_slice()))
    }

    /// The label's octets (already lower-cased).
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Octet length of the label.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the label is empty (never true for constructed labels).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Canonical comparison: plain byte-wise on the lower-cased octets
    /// (RFC 4034 §6.1).
    pub fn canonical_cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Label({})", self)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_label_bytes(f, &self.0)
    }
}

/// A borrowed view of one label inside a [`Name`]'s buffer.
///
/// Zero-cost to produce and copy; the octets are already lower-cased.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct LabelRef<'a>(&'a [u8]);

impl<'a> LabelRef<'a> {
    /// The label's octets (already lower-cased).
    pub fn as_bytes(&self) -> &'a [u8] {
        self.0
    }

    /// Octet length of the label.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the label is empty (never true inside a valid name).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Canonical comparison: byte-wise on the lower-cased octets
    /// (RFC 4034 §6.1).
    pub fn canonical_cmp(&self, other: &LabelRef<'_>) -> Ordering {
        self.0.cmp(other.0)
    }

    /// Copies the label out into an owned [`Label`].
    pub fn to_label(&self) -> Label {
        Label(self.0.into())
    }
}

impl fmt::Debug for LabelRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LabelRef({})", self)
    }
}

impl fmt::Display for LabelRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_label_bytes(f, self.0)
    }
}

/// The two storage classes of a [`Name`]; both hold the same byte layout.
#[derive(Clone)]
enum Repr {
    /// Short names: wire octets stored in place, `Clone` is a stack copy.
    Inline { len: u8, count: u8, buf: [u8; INLINE_LEN] },
    /// Long names: wire octets behind an `Arc`, `Clone` bumps a refcount.
    /// `start` lets `parent()`/`suffix()` share the ancestor's buffer.
    Shared { bytes: Arc<[u8]>, start: u16, count: u8 },
}

/// A fully-qualified domain name.
///
/// Stored as lower-cased, length-prefixed label octets (most-specific
/// first) without the trailing root byte; the root name is the empty
/// sequence. All names in this workspace are absolute. `Clone` never
/// allocates.
///
/// # Example
///
/// ```
/// use lookaside_wire::Name;
///
/// let n = Name::parse("www.Example.COM.")?;
/// assert_eq!(n.to_string(), "www.example.com.");
/// assert_eq!(n.label_count(), 3);
/// assert!(n.is_subdomain_of(&Name::parse("com.")?));
/// # Ok::<(), lookaside_wire::WireError>(())
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct Name {
    repr: Repr,
}

impl Name {
    /// The root name (`.`).
    pub fn root() -> Self {
        Name { repr: Repr::Inline { len: 0, count: 0, buf: [0; INLINE_LEN] } }
    }

    /// Builds a name over already-validated, lower-cased wire label octets.
    fn from_wire(bytes: &[u8], count: usize) -> Self {
        debug_assert!(bytes.len() < MAX_NAME_LEN && count <= MAX_LABELS);
        if bytes.len() <= INLINE_LEN {
            let mut buf = [0u8; INLINE_LEN];
            buf[..bytes.len()].copy_from_slice(bytes);
            Name { repr: Repr::Inline { len: bytes.len() as u8, count: count as u8, buf } }
        } else {
            Name { repr: Repr::Shared { bytes: Arc::from(bytes), start: 0, count: count as u8 } }
        }
    }

    /// Parses a textual domain name.
    ///
    /// A trailing dot is optional; every name is treated as absolute. Escaped
    /// characters are not supported (the study's domain corpora are plain
    /// ASCII hostnames).
    ///
    /// # Errors
    ///
    /// Fails on empty labels (`a..b`), over-long labels, and over-long names.
    pub fn parse(s: &str) -> Result<Self, WireError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Name::root());
        }
        let mut b = NameBuilder::new();
        for part in s.split('.') {
            b.push_label(part.as_bytes())?;
        }
        Ok(b.finish())
    }

    /// Builds a name from labels ordered most-specific first.
    ///
    /// # Errors
    ///
    /// Fails if the resulting name exceeds 255 wire octets.
    pub fn from_labels(labels: Vec<Label>) -> Result<Self, WireError> {
        let mut b = NameBuilder::new();
        for label in &labels {
            b.push_label(label.as_bytes())?;
        }
        Ok(b.finish())
    }

    /// The name's wire octets: lower-cased length-prefixed labels, without
    /// the trailing root byte. This is the canonical (RFC 4034 §6.2)
    /// encoding minus its terminator; `Eq`/`Hash` are defined over it.
    pub fn wire_labels(&self) -> &[u8] {
        match &self.repr {
            Repr::Inline { len, buf, .. } => &buf[..*len as usize],
            Repr::Shared { bytes, start, .. } => &bytes[*start as usize..],
        }
    }

    /// Whether the name is stored inline (no heap buffer).
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline { .. })
    }

    /// A borrowed view of the whole name.
    pub fn as_name_ref(&self) -> NameRef<'_> {
        NameRef { bytes: self.wire_labels(), count: self.label_count() as u8 }
    }

    /// Number of labels (the root name has zero).
    pub fn label_count(&self) -> usize {
        match &self.repr {
            Repr::Inline { count, .. } | Repr::Shared { count, .. } => *count as usize,
        }
    }

    /// Whether this is the root name.
    pub fn is_root(&self) -> bool {
        self.label_count() == 0
    }

    /// Iterates the labels, most-specific first, without allocating.
    pub fn labels(&self) -> Labels<'_> {
        Labels { bytes: self.wire_labels(), count: self.label_count() }
    }

    /// The `i`-th label, most-specific first.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.label_count()`.
    #[expect(
        clippy::expect_used,
        reason = "documented contract panic (see \"# Panics\" above); callers index within label_count()"
    )]
    pub fn label(&self, i: usize) -> LabelRef<'_> {
        self.labels().nth(i).expect("label index out of range")
    }

    /// Octet length of the name in (uncompressed) wire form.
    pub fn wire_len(&self) -> usize {
        self.wire_labels().len() + 1
    }

    /// A fixed 64-bit hash of [`Name::wire_labels`]: equal names have equal
    /// fingerprints on every platform, build and run. [`crate::NameMap`]
    /// orders its keys by it. Allocation-free.
    pub fn fingerprint(&self) -> u64 {
        fingerprint(self.wire_labels())
    }

    /// The parent name (one label removed), or `None` for the root.
    ///
    /// This is the "strip the leading label and try again" step of RFC 5074
    /// §4.1 that the DLV validator uses when walking up toward an enclosing
    /// DLV record. On a shared name this re-slices the same buffer — no
    /// copy, no allocation.
    pub fn parent(&self) -> Option<Name> {
        match &self.repr {
            Repr::Inline { len, count, buf } => {
                if *count == 0 {
                    return None;
                }
                let skip = 1 + buf[0] as usize;
                let rest = &buf[skip..*len as usize];
                let mut nb = [0u8; INLINE_LEN];
                nb[..rest.len()].copy_from_slice(rest);
                Some(Name {
                    repr: Repr::Inline { len: rest.len() as u8, count: count - 1, buf: nb },
                })
            }
            Repr::Shared { bytes, start, count } => {
                let s = *start as usize;
                let skip = 1 + bytes[s] as usize;
                Some(Name {
                    repr: Repr::Shared {
                        bytes: Arc::clone(bytes),
                        start: (s + skip) as u16,
                        count: count - 1,
                    },
                })
            }
        }
    }

    /// The name formed by keeping only the last `n` labels.
    ///
    /// `suffix(0)` is the root; `suffix(label_count())` is `self`. On a
    /// shared name the result shares the same buffer.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.label_count()`.
    pub fn suffix(&self, n: usize) -> Name {
        let count = self.label_count();
        assert!(n <= count, "suffix({n}) of a {count}-label name");
        let drop = count - n;
        match &self.repr {
            Repr::Inline { len, buf, .. } => {
                let mut pos = 0usize;
                for _ in 0..drop {
                    pos += 1 + buf[pos] as usize;
                }
                let rest = &buf[pos..*len as usize];
                let mut nb = [0u8; INLINE_LEN];
                nb[..rest.len()].copy_from_slice(rest);
                Name { repr: Repr::Inline { len: rest.len() as u8, count: n as u8, buf: nb } }
            }
            Repr::Shared { bytes, start, .. } => {
                let mut pos = *start as usize;
                for _ in 0..drop {
                    pos += 1 + bytes[pos] as usize;
                }
                Name {
                    repr: Repr::Shared {
                        bytes: Arc::clone(bytes),
                        start: pos as u16,
                        count: n as u8,
                    },
                }
            }
        }
    }

    /// Whether `self` is equal to or a subdomain of `ancestor`.
    ///
    /// Allocation-free: skips `self`'s extra leading labels (so the byte
    /// comparison is label-boundary aligned) and compares the tails.
    pub fn is_subdomain_of(&self, ancestor: &Name) -> bool {
        self.as_name_ref().ends_with(ancestor.as_name_ref())
    }

    /// Concatenates `self` (kept most-specific) with `suffix`.
    ///
    /// Used to form DLV query names: `example.com` + `dlv.isc.org` =
    /// `example.com.dlv.isc.org` (RFC 5074 §4.1).
    ///
    /// # Errors
    ///
    /// Fails if the combined name exceeds 255 wire octets.
    pub fn concat(&self, suffix: &Name) -> Result<Name, WireError> {
        let a = self.wire_labels();
        let b = suffix.wire_labels();
        let total = a.len() + b.len();
        if total + 1 > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(total + 1));
        }
        let mut buf = [0u8; MAX_NAME_LEN];
        buf[..a.len()].copy_from_slice(a);
        buf[a.len()..total].copy_from_slice(b);
        Ok(Name::from_wire(&buf[..total], self.label_count() + suffix.label_count()))
    }

    /// Prepends a single textual label.
    ///
    /// # Errors
    ///
    /// Fails on invalid labels or over-long results.
    pub fn prepend(&self, label: &str) -> Result<Name, WireError> {
        let lb = label.as_bytes();
        if lb.is_empty() {
            return Err(WireError::BadNameSyntax("empty label".into()));
        }
        if lb.len() > MAX_LABEL_LEN {
            return Err(WireError::LabelTooLong(lb.len()));
        }
        let rest = self.wire_labels();
        let total = 1 + lb.len() + rest.len();
        if total + 1 > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(total + 1));
        }
        let mut buf = [0u8; MAX_NAME_LEN];
        buf[0] = lb.len() as u8;
        for (dst, &b) in buf[1..1 + lb.len()].iter_mut().zip(lb) {
            *dst = b.to_ascii_lowercase();
        }
        buf[1 + lb.len()..total].copy_from_slice(rest);
        Ok(Name::from_wire(&buf[..total], self.label_count() + 1))
    }

    /// Strips `suffix` from the end of the name, returning the relative part.
    ///
    /// Returns `None` when `self` is not a subdomain of `suffix`. Stripping a
    /// name from itself yields the root.
    pub fn strip_suffix(&self, suffix: &Name) -> Option<Name> {
        if !self.is_subdomain_of(suffix) {
            return None;
        }
        let bytes = self.wire_labels();
        let keep = bytes.len() - suffix.wire_labels().len();
        Some(Name::from_wire(&bytes[..keep], self.label_count() - suffix.label_count()))
    }

    /// Canonical DNS name ordering (RFC 4034 §6.1): sort by the right-most
    /// label first, byte-wise per label, with absent labels sorting first.
    ///
    /// This ordering defines NSEC chains, and NSEC chains define which DLV
    /// queries the aggressive negative cache suppresses — the mechanism
    /// behind Figs. 8 and 9 of the paper. Allocation-free: label offsets go
    /// on the stack.
    pub fn canonical_cmp(&self, other: &Name) -> Ordering {
        self.as_name_ref().canonical_cmp(other.as_name_ref())
    }

    /// Encodes the name, uncompressed, appending to `buf`.
    pub fn encode_uncompressed(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self.wire_labels());
        buf.push(0);
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.wire_labels() == other.wire_labels()
    }
}

impl Eq for Name {}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.wire_labels().hash(state);
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({})", self)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.as_name_ref(), f)
    }
}

impl FromStr for Name {
    type Err = WireError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// `Ord` for `Name` *is* the canonical ordering, so that `BTreeMap<Name, _>`
/// iterates in NSEC-chain order.
impl Ord for Name {
    fn cmp(&self, other: &Self) -> Ordering {
        self.canonical_cmp(other)
    }
}

/// Iterator over a name's labels, most-specific first. Never allocates.
#[derive(Clone)]
pub struct Labels<'a> {
    bytes: &'a [u8],
    count: usize,
}

impl<'a> Iterator for Labels<'a> {
    type Item = LabelRef<'a>;

    fn next(&mut self) -> Option<LabelRef<'a>> {
        if self.bytes.is_empty() {
            return None;
        }
        let l = self.bytes[0] as usize;
        let (head, tail) = self.bytes.split_at(1 + l);
        self.bytes = tail;
        self.count -= 1;
        Some(LabelRef(&head[1..]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.count, Some(self.count))
    }
}

impl ExactSizeIterator for Labels<'_> {}

/// A borrowed view of a whole name: the wire label octets plus label count.
///
/// Everything a read path needs — canonical comparison, suffix tests, label
/// iteration, display — without owning or copying the bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct NameRef<'a> {
    bytes: &'a [u8],
    count: u8,
}

impl<'a> NameRef<'a> {
    /// The wire octets (lower-cased length-prefixed labels, no root byte).
    pub fn wire_labels(&self) -> &'a [u8] {
        self.bytes
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.count as usize
    }

    /// Whether this is the root name.
    pub fn is_root(&self) -> bool {
        self.count == 0
    }

    /// Octet length in uncompressed wire form.
    pub fn wire_len(&self) -> usize {
        self.bytes.len() + 1
    }

    /// Iterates the labels, most-specific first.
    pub fn labels(&self) -> Labels<'a> {
        Labels { bytes: self.bytes, count: self.count as usize }
    }

    /// Whether `self` is equal to or a subdomain of `ancestor`.
    ///
    /// Byte-tail equality alone would be wrong (a tail can match without
    /// being label-aligned, e.g. the 2-octet label `\001b` ends with the
    /// encoding of `b.`), so the extra leading labels are skipped first.
    pub fn ends_with(&self, ancestor: NameRef<'_>) -> bool {
        if ancestor.count > self.count {
            return false;
        }
        let mut pos = 0usize;
        for _ in 0..self.count - ancestor.count {
            pos += 1 + self.bytes[pos] as usize;
        }
        self.bytes[pos..] == *ancestor.bytes
    }

    /// Canonical DNS name ordering (RFC 4034 §6.1), allocation-free.
    pub fn canonical_cmp(&self, other: NameRef<'_>) -> Ordering {
        let mut aoff = [0u8; MAX_LABELS];
        let mut boff = [0u8; MAX_LABELS];
        let an = label_offsets(self.bytes, &mut aoff);
        let bn = label_offsets(other.bytes, &mut boff);
        for i in 1..=an.min(bn) {
            let la = label_at(self.bytes, aoff[an - i]);
            let lb = label_at(other.bytes, boff[bn - i]);
            match la.cmp(lb) {
                Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        an.cmp(&bn)
    }

    /// Copies the view into an owned [`Name`].
    pub fn to_name(&self) -> Name {
        Name::from_wire(self.bytes, self.count as usize)
    }
}

impl fmt::Debug for NameRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NameRef({})", self)
    }
}

impl fmt::Display for NameRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return write!(f, ".");
        }
        for label in self.labels() {
            write!(f, "{}.", label)?;
        }
        Ok(())
    }
}

/// Writes each label's start offset into `out`; returns the label count.
pub(crate) fn label_offsets(bytes: &[u8], out: &mut [u8; MAX_LABELS]) -> usize {
    let mut n = 0usize;
    let mut pos = 0usize;
    while pos < bytes.len() {
        out[n] = pos as u8;
        n += 1;
        pos += 1 + bytes[pos] as usize;
    }
    n
}

fn label_at(bytes: &[u8], off: u8) -> &[u8] {
    let off = off as usize;
    let len = bytes[off] as usize;
    &bytes[off + 1..off + 1 + len]
}

/// Multiply-rotate over little-endian 8-octet words, seeded with the
/// length, then the MurmurHash3 64-bit finalizer. A name of up to 22
/// octets — almost every hostname — takes three word steps, where a
/// byte-at-a-time FNV-1a would take one multiply per octet.
fn fingerprint(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = (bytes.len() as u64).wrapping_mul(K);
    for chunk in bytes.chunks(8) {
        // The last word is zero-padded; the length seed tells it apart.
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = (h ^ u64::from_le_bytes(word)).wrapping_mul(K).rotate_left(31);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Incrementally assembles a [`Name`] from labels on a stack buffer.
///
/// Used by [`Name::parse`] and the wire decoder so a name is validated and
/// lower-cased exactly once, with at most one heap allocation (none if the
/// result fits inline).
pub struct NameBuilder {
    buf: [u8; MAX_NAME_LEN],
    len: usize,
    count: usize,
}

impl NameBuilder {
    /// An empty builder (finishing it yields the root name).
    pub fn new() -> Self {
        NameBuilder { buf: [0; MAX_NAME_LEN], len: 0, count: 0 }
    }

    /// Appends one label, lower-casing while copying.
    ///
    /// # Errors
    ///
    /// Fails on empty or over-long labels and when the name would exceed
    /// 255 wire octets.
    pub fn push_label(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        if bytes.is_empty() {
            return Err(WireError::BadNameSyntax("empty label".into()));
        }
        if bytes.len() > MAX_LABEL_LEN {
            return Err(WireError::LabelTooLong(bytes.len()));
        }
        let new_len = self.len + 1 + bytes.len();
        if new_len + 1 > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(new_len + 1));
        }
        self.buf[self.len] = bytes.len() as u8;
        for (dst, &b) in self.buf[self.len + 1..new_len].iter_mut().zip(bytes) {
            *dst = b.to_ascii_lowercase();
        }
        self.len = new_len;
        self.count += 1;
        Ok(())
    }

    /// Wire length (including the root byte) of the name built so far.
    pub fn wire_len(&self) -> usize {
        self.len + 1
    }

    /// Finishes the name.
    pub fn finish(&self) -> Name {
        Name::from_wire(&self.buf[..self.len], self.count)
    }
}

impl Default for NameBuilder {
    fn default() -> Self {
        NameBuilder::new()
    }
}

/// A per-worker interner for heap-backed names.
///
/// Interning maps equal names onto one shared `Arc` buffer so hot paths
/// (packet captures, caches) hold refcounted handles instead of copies.
/// Inline names are returned as-is — their `Clone` is already a stack copy.
/// Tables are deliberately *not* global: each worker/shard owns its own, so
/// parallel runs share nothing and determinism is preserved (interning can
/// never change a name's value, only where its bytes live).
#[derive(Debug, Clone, Default)]
pub struct NameTable {
    #[expect(
        clippy::disallowed_types,
        reason = "only probed, inserted into, counted and cleared, never iterated: interning order cannot reach a result"
    )]
    set: std::collections::HashSet<Name>,
}

impl NameTable {
    /// An empty table.
    pub fn new() -> Self {
        NameTable::default()
    }

    /// Returns a handle equal to `name`, shared with every previous intern
    /// of the same name. O(1) and allocation-free for inline names and for
    /// already-interned names.
    pub fn intern(&mut self, name: &Name) -> Name {
        if name.is_inline() {
            return name.clone();
        }
        if let Some(existing) = self.set.get(name) {
            return existing.clone();
        }
        let handle = name.clone();
        self.set.insert(handle.clone());
        handle
    }

    /// Number of distinct heap-backed names interned.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Drops all interned names.
    pub fn clear(&mut self) {
        self.set.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["example.com.", "a.b.c.d.e.", "xn--caf-dma.org.", "."] {
            assert_eq!(n(s).to_string(), s);
        }
    }

    #[test]
    fn parse_without_trailing_dot() {
        assert_eq!(n("example.com"), n("example.com."));
    }

    #[test]
    fn parse_is_case_insensitive() {
        assert_eq!(n("ExAmPlE.CoM"), n("example.com"));
        assert_eq!(n("WWW.EXAMPLE.COM").to_string(), "www.example.com.");
    }

    #[test]
    fn empty_label_rejected() {
        assert!(matches!(Name::parse("a..b"), Err(WireError::BadNameSyntax(_))));
    }

    #[test]
    fn long_label_rejected() {
        let long = "a".repeat(64);
        assert!(matches!(Name::parse(&long), Err(WireError::LabelTooLong(64))));
        assert!(Name::parse(&"a".repeat(63)).is_ok());
    }

    #[test]
    fn long_name_rejected() {
        let label = "a".repeat(63);
        let four = format!("{label}.{label}.{label}.{label}");
        assert!(matches!(Name::parse(&four), Err(WireError::NameTooLong(_))));
    }

    #[test]
    fn root_properties() {
        let r = Name::root();
        assert!(r.is_root());
        assert_eq!(r.label_count(), 0);
        assert_eq!(r.wire_len(), 1);
        assert_eq!(r.parent(), None);
        assert_eq!(r.to_string(), ".");
    }

    #[test]
    fn parent_walks_to_root() {
        let mut cur = n("a.b.c");
        let mut seen = vec![cur.to_string()];
        while let Some(p) = cur.parent() {
            seen.push(p.to_string());
            cur = p;
        }
        assert_eq!(seen, ["a.b.c.", "b.c.", "c.", "."]);
    }

    #[test]
    fn subdomain_relation() {
        assert!(n("www.example.com").is_subdomain_of(&n("example.com")));
        assert!(n("example.com").is_subdomain_of(&n("example.com")));
        assert!(n("example.com").is_subdomain_of(&Name::root()));
        assert!(!n("example.com").is_subdomain_of(&n("www.example.com")));
        assert!(!n("notexample.com").is_subdomain_of(&n("example.com")));
    }

    #[test]
    fn subdomain_requires_label_alignment() {
        // "kb.c" ends (byte-wise) with the wire encoding of "b.c" only if
        // the comparison ignores label boundaries; it must not match.
        assert!(!n("kb.c").is_subdomain_of(&n("b.c")));
        assert!(n("a.b.c").is_subdomain_of(&n("b.c")));
    }

    #[test]
    fn concat_forms_dlv_names() {
        let q = n("example.com").concat(&n("dlv.isc.org")).unwrap();
        assert_eq!(q.to_string(), "example.com.dlv.isc.org.");
    }

    #[test]
    fn concat_overflow_is_error() {
        let label = "a".repeat(63);
        let big = Name::parse(&format!("{label}.{label}.{label}")).unwrap();
        assert!(big.concat(&big).is_err());
    }

    #[test]
    fn strip_suffix_inverse_of_concat() {
        let dlv = n("dlv.isc.org");
        let q = n("example.com").concat(&dlv).unwrap();
        assert_eq!(q.strip_suffix(&dlv).unwrap(), n("example.com"));
        assert_eq!(q.strip_suffix(&n("other.org")), None);
        assert!(dlv.strip_suffix(&dlv).unwrap().is_root());
    }

    #[test]
    fn suffix_keeps_last_labels() {
        let name = n("a.b.c.d");
        assert_eq!(name.suffix(2), n("c.d"));
        assert!(name.suffix(0).is_root());
        assert_eq!(name.suffix(4), name);
    }

    #[test]
    #[should_panic(expected = "suffix")]
    fn suffix_out_of_range_panics() {
        n("a.b").suffix(3);
    }

    #[test]
    fn canonical_order_rfc4034_example() {
        // The worked example from RFC 4034 §6.1.
        let sorted = [
            "example.",
            "a.example.",
            "yljkjljk.a.example.",
            "z.a.example.",
            "zabc.a.example.",
            "z.example.",
        ];
        let mut names: Vec<Name> = sorted.iter().map(|s| n(s)).collect();
        names.reverse();
        names.sort_by(|a, b| a.canonical_cmp(b));
        let out: Vec<String> = names.iter().map(|x| x.to_string()).collect();
        assert_eq!(out, sorted);
    }

    #[test]
    fn ord_matches_canonical() {
        let a = n("a.example");
        let b = n("z.example");
        assert!(a < b);
        assert!(n("example") < a);
    }

    #[test]
    fn wire_len_counts_octets() {
        assert_eq!(n("example.com").wire_len(), 1 + 7 + 1 + 3 + 1);
    }

    #[test]
    fn encode_uncompressed_layout() {
        let mut buf = Vec::new();
        n("ab.c").encode_uncompressed(&mut buf);
        assert_eq!(buf, vec![2, b'a', b'b', 1, b'c', 0]);
    }

    #[test]
    fn label_display_escapes_binary() {
        let l = Label::new(&[b'a', 0x01, b'.']).unwrap();
        assert_eq!(l.to_string(), "a\\001\\.");
    }

    #[test]
    fn name_stays_compact() {
        assert!(std::mem::size_of::<Name>() <= 32, "{}", std::mem::size_of::<Name>());
    }

    #[test]
    fn short_names_are_inline_long_names_shared() {
        assert!(n("www.example.com").is_inline());
        assert!(Name::root().is_inline());
        assert!(!n("quite-long-subdomain.of.an.example.domain.test").is_inline());
    }

    #[test]
    #[expect(clippy::disallowed_types, reason = "checks `Hash` across representations")]
    fn inline_and_shared_compare_equal() {
        // Force a shared repr for a short logical value by slicing a long one.
        let long = n("extremely-long-prefix-padding-padding.example.com");
        let tail = long.suffix(2);
        assert!(!long.is_inline());
        assert_eq!(tail, n("example.com"));
        assert_eq!(tail.canonical_cmp(&n("example.com")), Ordering::Equal);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |name: &Name| {
            let mut s = DefaultHasher::new();
            name.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&tail), h(&n("example.com")));
    }

    #[test]
    fn shared_parent_reuses_buffer() {
        let name = n("deep.label.chain.for-a-heap-backed.example.name");
        assert!(!name.is_inline());
        let parent = name.parent().unwrap();
        // The parent's bytes are the same allocation, just offset.
        let skip = 1 + name.wire_labels()[0] as usize;
        assert!(std::ptr::eq(parent.wire_labels().as_ptr(), name.wire_labels()[skip..].as_ptr()));
    }

    #[test]
    fn labels_iterator_and_indexing() {
        let name = n("www.example.com");
        let parts: Vec<String> = name.labels().map(|l| l.to_string()).collect();
        assert_eq!(parts, ["www", "example", "com"]);
        assert_eq!(name.labels().len(), 3);
        assert_eq!(name.label(0).as_bytes(), b"www");
        assert_eq!(name.label(2).as_bytes(), b"com");
    }

    #[test]
    fn name_ref_matches_owned_semantics() {
        let a = n("a.example.com");
        let b = n("example.com");
        assert!(a.as_name_ref().ends_with(b.as_name_ref()));
        assert!(!b.as_name_ref().ends_with(a.as_name_ref()));
        assert_eq!(a.as_name_ref().canonical_cmp(b.as_name_ref()), Ordering::Greater);
        assert_eq!(a.as_name_ref().to_name(), a);
        assert_eq!(a.as_name_ref().to_string(), a.to_string());
    }

    #[test]
    fn interning_shares_storage() {
        let mut table = NameTable::new();
        let a = n("some-rather-long-host.subdomain.example.org");
        let b = n("some-rather-long-host.subdomain.example.org");
        let ia = table.intern(&a);
        let ib = table.intern(&b);
        assert_eq!(table.len(), 1);
        assert_eq!(ia, ib);
        assert!(std::ptr::eq(ia.wire_labels().as_ptr(), ib.wire_labels().as_ptr()));
        // Inline names bypass the table entirely.
        let short = table.intern(&n("a.com"));
        assert_eq!(short, n("a.com"));
        assert_eq!(table.len(), 1);
    }
}

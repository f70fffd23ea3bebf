//! Low-level wire encoding and decoding.
//!
//! [`Writer`] implements RFC 1035 §4.1.4 name compression so the simulator's
//! traffic-volume measurements (Table 5, Figs. 10–12 of the paper) use
//! realistic message sizes; [`Reader`] follows compression pointers with loop
//! protection.
//!
//! Both directions ride the compact [`Name`] representation: the writer
//! probes its compression map with borrowed byte-suffix slices of the name's
//! contiguous wire bytes (no per-tail `Name` or key allocation — the map
//! only allocates when a *new* suffix is recorded), and the reader assembles
//! labels on a stack [`NameBuilder`], so decoding a short name touches the
//! heap zero times.

// lint:allow-file(panic::slice-index) -- every Reader slice is preceded by an explicit bounds check (take/seek/read_bytes validate offsets before slicing); the 10k fixed-seed corruption fuzz gate in ci.sh proves panic-freedom on arbitrary input bytes

// lint:allow(determinism::hash-collection) -- Writer.names is only probed, inserted into and cleared, never iterated, so its order cannot reach the encoded bytes
use std::collections::HashMap;

use crate::name::{label_offsets, NameBuilder, MAX_LABELS, MAX_NAME_LEN};
use crate::{Name, WireError};

/// An appending wire-format writer with name compression.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    /// Maps a name tail's wire label bytes (length-prefixed, lower-cased, no
    /// root byte) to the message offset where that tail was first written.
    /// Offsets beyond 0x3fff are not recorded because pointers cannot reach
    /// them. Probed with borrowed slices; keys are only allocated on first
    /// sight of a suffix.
    // lint:allow(determinism::hash-collection) -- looked up and cleared, never iterated
    names: HashMap<Vec<u8>, u16>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Octets written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The encoded bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Clears the buffer and the compression map, keeping both allocations
    /// — the reset that lets one writer render many messages (see
    /// [`crate::RenderArena`]).
    pub fn reset(&mut self) {
        self.buf.clear();
        self.names.clear();
    }

    /// Appends one octet.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian `u16`.
    pub fn write_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Reserves a `u16` slot (e.g. for RDLENGTH) and returns its offset for a
    /// later [`Writer::patch_u16`].
    pub fn reserve_u16(&mut self) -> usize {
        let pos = self.buf.len();
        self.buf.extend_from_slice(&[0, 0]);
        pos
    }

    /// Patches a previously reserved `u16` slot.
    ///
    /// # Panics
    ///
    /// Panics if `pos` was not obtained from [`Writer::reserve_u16`] on this
    /// writer (out of bounds).
    pub fn patch_u16(&mut self, pos: usize, v: u16) {
        self.buf[pos..pos + 2].copy_from_slice(&v.to_be_bytes());
    }

    /// Writes a name with compression against previously written names.
    ///
    /// Finds the longest previously written tail (scanning from the full
    /// name down), emits any unmatched leading labels followed by a pointer,
    /// and records the offsets of newly emitted tails for later repeats.
    pub fn write_name(&mut self, name: &Name) {
        let bytes = name.wire_labels();
        let mut offs = [0u8; MAX_LABELS];
        let n = label_offsets(bytes, &mut offs);
        for i in 0..n {
            let tail = &bytes[offs[i] as usize..];
            if let Some(&pointer) = self.names.get(tail) {
                // Emit the labels before the match, then a pointer.
                let prefix = &bytes[..offs[i] as usize];
                self.buf.extend_from_slice(prefix);
                self.write_u16(0xc000 | pointer);
                // Record the freshly emitted tails too so later repeats
                // compress fully.
                let base = self.buf.len() - 2 - prefix.len();
                self.record_tails(bytes, &offs[..i], base);
                return;
            }
        }
        // No suffix matched: write uncompressed and remember all suffixes.
        let base = self.buf.len();
        self.buf.extend_from_slice(bytes);
        self.buf.push(0);
        self.record_tails(bytes, &offs[..n], base);
    }

    /// Writes a name without compression and without recording it (canonical
    /// form for RDATA and signature input).
    pub fn write_name_uncompressed(&mut self, name: &Name) {
        name.encode_uncompressed(&mut self.buf);
    }

    /// Records the message offset of each tail of `bytes` starting at the
    /// given label offsets, where the byte at `offs[i]` sits at message
    /// offset `base + offs[i]`. First sighting wins.
    fn record_tails(&mut self, bytes: &[u8], offs: &[u8], base: usize) {
        for &off in offs {
            let at = base + off as usize;
            if at <= 0x3fff {
                let tail = &bytes[off as usize..];
                if !self.names.contains_key(tail) {
                    self.names.insert(tail.to_vec(), at as u16);
                }
            }
        }
    }
}

/// A bounds-checked wire-format reader that follows compression pointers.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over a whole message buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Moves the read offset.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if `pos` is past the end.
    pub fn seek(&mut self, pos: usize) -> Result<(), WireError> {
        if pos > self.buf.len() {
            return Err(WireError::Truncated { context: "seek" });
        }
        self.pos = pos;
        Ok(())
    }

    /// Octets remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads one octet.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] at end of buffer.
    pub fn read_u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated { context })?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a big-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] at end of buffer.
    pub fn read_u16(&mut self, context: &'static str) -> Result<u16, WireError> {
        let bytes = self.read_bytes(2, context)?;
        Ok(u16::from_be_bytes([bytes[0], bytes[1]]))
    }

    /// Reads a big-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] at end of buffer.
    pub fn read_u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        let bytes = self.read_bytes(4, context)?;
        Ok(u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    /// Reads exactly `n` octets.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if fewer remain.
    pub fn read_bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { context });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a (possibly compressed) name.
    ///
    /// # Errors
    ///
    /// Fails on truncation, forward pointers, pointer loops, and over-long
    /// names.
    pub fn read_name(&mut self) -> Result<Name, WireError> {
        let mut builder = NameBuilder::new();
        let mut jumped = false;
        let mut jump_count = 0usize;
        let mut cursor = self.pos;
        loop {
            let len = *self.buf.get(cursor).ok_or(WireError::Truncated { context: "name" })?;
            match len {
                0 => {
                    cursor += 1;
                    if !jumped {
                        self.pos = cursor;
                    }
                    return Ok(builder.finish());
                }
                l if l & 0xc0 == 0xc0 => {
                    let second = *self
                        .buf
                        .get(cursor + 1)
                        .ok_or(WireError::Truncated { context: "name pointer" })?;
                    let target = (((l & 0x3f) as usize) << 8) | second as usize;
                    if target >= cursor {
                        return Err(WireError::BadPointer(target));
                    }
                    jump_count += 1;
                    if jump_count > 64 {
                        // Each jump must point strictly backwards, so a
                        // 64-jump chain in a 64 KiB message is already
                        // adversarial; bail with a loop diagnosis rather
                        // than walking the chain to exhaustion.
                        return Err(WireError::CompressionLoop { jumps: jump_count });
                    }
                    if !jumped {
                        self.pos = cursor + 2;
                        jumped = true;
                    }
                    cursor = target;
                }
                l if l & 0xc0 != 0 => {
                    return Err(WireError::UnsupportedValue {
                        field: "label type",
                        value: (l >> 6) as u32,
                    });
                }
                l => {
                    let l = l as usize;
                    let start = cursor + 1;
                    let bytes = self
                        .buf
                        .get(start..start + l)
                        .ok_or(WireError::Truncated { context: "label" })?;
                    if builder.wire_len() + l + 1 > MAX_NAME_LEN {
                        return Err(WireError::NameTooLong(builder.wire_len() + l + 1));
                    }
                    builder.push_label(bytes)?;
                    cursor = start + l;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn writer_compresses_repeated_names() {
        let mut w = Writer::new();
        w.write_name(&n("www.example.com"));
        let first = w.len();
        w.write_name(&n("www.example.com"));
        let second = w.len() - first;
        assert_eq!(second, 2, "exact repeat should be a single pointer");

        let mut w2 = Writer::new();
        w2.write_name(&n("www.example.com"));
        let before = w2.len();
        w2.write_name(&n("mail.example.com"));
        // "mail" label (5) + pointer (2).
        assert_eq!(w2.len() - before, 5 + 2);
    }

    #[test]
    fn reader_decodes_compressed_names() {
        let mut w = Writer::new();
        w.write_name(&n("www.example.com"));
        w.write_name(&n("mail.example.com"));
        w.write_name(&n("example.com"));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.read_name().unwrap(), n("www.example.com"));
        assert_eq!(r.read_name().unwrap(), n("mail.example.com"));
        assert_eq!(r.read_name().unwrap(), n("example.com"));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn pointer_loop_is_rejected() {
        // A name that is a pointer to itself.
        let buf = [0xc0, 0x00];
        let mut r = Reader::new(&buf);
        assert!(r.read_name().is_err());
    }

    #[test]
    fn deep_pointer_chain_is_a_compression_loop() {
        // 70 pointers, each legally pointing strictly backwards: the
        // forward-pointer check cannot catch this, the jump bound must.
        let mut buf = vec![0u8];
        let mut prev = 0u16;
        for _ in 0..70 {
            let here = buf.len() as u16;
            buf.push(0xc0 | (prev >> 8) as u8);
            buf.push((prev & 0xff) as u8);
            prev = here;
        }
        let mut r = Reader::new(&buf);
        r.seek(prev as usize).unwrap();
        assert!(matches!(r.read_name(), Err(WireError::CompressionLoop { .. })));
    }

    #[test]
    fn forward_pointer_is_rejected() {
        let buf = [0xc0, 0x04, 0, 0, 1, b'a', 0];
        let mut r = Reader::new(&buf);
        assert!(r.read_name().is_err());
    }

    #[test]
    fn root_name_round_trips() {
        let mut w = Writer::new();
        w.write_name(&Name::root());
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0]);
        assert!(Reader::new(&bytes).read_name().unwrap().is_root());
    }

    #[test]
    fn truncated_label_is_error() {
        let buf = [5, b'a', b'b'];
        let mut r = Reader::new(&buf);
        assert!(matches!(r.read_name(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn reserve_and_patch() {
        let mut w = Writer::new();
        let slot = w.reserve_u16();
        w.write_bytes(&[1, 2, 3]);
        w.patch_u16(slot, 3);
        assert_eq!(w.into_bytes(), vec![0, 3, 1, 2, 3]);
    }

    #[test]
    fn reader_primitives() {
        let buf = [0xde, 0xad, 0xbe, 0xef, 0x01];
        let mut r = Reader::new(&buf);
        assert_eq!(r.read_u32("x").unwrap(), 0xdead_beef);
        assert_eq!(r.read_u8("y").unwrap(), 1);
        assert!(r.read_u8("z").is_err());
    }

    #[test]
    fn uncompressed_names_are_not_compression_targets() {
        let mut w = Writer::new();
        w.write_name_uncompressed(&n("example.com"));
        let before = w.len();
        w.write_name(&n("example.com"));
        // Must be written in full (13 bytes), not as a pointer.
        assert_eq!(w.len() - before, n("example.com").wire_len());
    }

    #[test]
    fn partial_match_records_new_tails() {
        // After writing a.b.c and then x.b.c (which compresses to the b.c
        // tail), a later x.b.c repeat must compress to a single pointer.
        let mut w = Writer::new();
        w.write_name(&n("a.b.c"));
        w.write_name(&n("x.b.c"));
        let before = w.len();
        w.write_name(&n("x.b.c"));
        assert_eq!(w.len() - before, 2);
    }

    #[test]
    fn mixed_case_names_compress_together() {
        let mut w = Writer::new();
        w.write_name(&n("WWW.Example.COM"));
        let before = w.len();
        w.write_name(&n("www.example.com"));
        assert_eq!(w.len() - before, 2);
    }
}

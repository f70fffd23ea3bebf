//! Outcome digests and the file that records them per workload and seed.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::fs;
use std::io;
use std::path::Path;

/// FNV-1a over `label=value;` pairs: two runs digest equal exactly when
/// they fed the same labelled values in the same order.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Digest {
    /// An empty digest.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds one labelled value.
    pub fn add(&mut self, label: &str, value: impl Display) -> &mut Self {
        for byte in format!("{label}={value};").bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Recorded digests, one line `workload seed digest` each.
#[derive(Debug, Default)]
pub struct Records(BTreeMap<(String, u64), String>);

impl Records {
    /// Loads `path`; a missing file is an empty record.
    pub fn load(path: &Path) -> io::Result<Self> {
        match fs::read_to_string(path) {
            Ok(text) => Records::parse(&text).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", path.display()))
            }),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Records::default()),
            Err(e) => Err(e),
        }
    }

    /// Parses the record format.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut records = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [workload, seed, digest] = fields[..] else {
                return Err(format!("line {}: expected `workload seed digest`", i + 1));
            };
            let seed = seed.parse().map_err(|e| format!("line {}: seed: {e}", i + 1))?;
            records.insert((workload.to_string(), seed), digest.to_string());
        }
        Ok(Records(records))
    }

    /// The record format, sorted by workload then seed.
    pub fn render(&self) -> String {
        self.0.iter().map(|((w, seed), d)| format!("{w} {seed} {d}\n")).collect()
    }

    /// Writes the records to `path`.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        fs::write(path, self.render())
    }

    /// The digest recorded for `workload` at `seed`, if any.
    pub fn get(&self, workload: &str, seed: u64) -> Option<&str> {
        self.0.get(&(workload.to_string(), seed)).map(String::as_str)
    }

    /// Records `digest` for `workload` at `seed`.
    pub fn set(&mut self, workload: &str, seed: u64, digest: String) {
        self.0.insert((workload.to_string(), seed), digest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_depends_on_labels_values_and_order() {
        let hex = |pairs: &[(&str, u64)]| {
            let mut d = Digest::new();
            for (label, value) in pairs {
                d.add(label, value);
            }
            d.hex()
        };
        let base = hex(&[("a", 1), ("b", 2)]);
        assert_eq!(base, hex(&[("a", 1), ("b", 2)]));
        assert_ne!(base, hex(&[("b", 2), ("a", 1)]));
        assert_ne!(base, hex(&[("a", 1), ("b", 3)]));
        assert_ne!(base, hex(&[("a", 1), ("c", 2)]));
        assert_eq!(base.len(), 16);
    }

    #[test]
    fn records_round_trip_through_their_text_form() {
        let mut records = Records::parse("").unwrap();
        assert!(records.get("cold-sweep", 1).is_none());
        records.set("farm-sweep", 0, "abcd".into());
        records.set("cold-sweep", 1, "00ff".into());
        let text = records.render();
        assert_eq!(text, "cold-sweep 1 00ff\nfarm-sweep 0 abcd\n");
        let parsed = Records::parse(&text).unwrap();
        assert_eq!(parsed.get("cold-sweep", 1), Some("00ff"));
        assert_eq!(parsed.get("farm-sweep", 0), Some("abcd"));
        assert!(Records::parse("cold-sweep x 00ff").is_err());
        assert!(Records::parse("cold-sweep 1").is_err());
    }
}

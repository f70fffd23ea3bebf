//! Semantic-pass fixture: a panic two calls below a hot-path entry.
//! Classified outside the HOT_PATH crates, where clippy does not deny
//! `.unwrap()`, only the transitive panic-reachability pass can connect
//! entry → mid → deep and flag it.

// lint:entry(hot-path)
pub fn canary_entry(q: &[u8]) -> u8 {
    canary_mid(q)
}

fn canary_mid(q: &[u8]) -> u8 {
    canary_deep(q.first().copied())
}

fn canary_deep(b: Option<u8>) -> u8 {
    b.unwrap()
}

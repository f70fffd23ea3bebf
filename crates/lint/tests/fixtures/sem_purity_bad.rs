//! Semantic-pass fixture: direct filesystem I/O in a sim crate. The
//! purity wall confines `std::{fs,io,net}` effects to engine::checkpoint,
//! engine::diag, and the bench/lint crates; a `fs::` call here must
//! fire `semantic::purity-wall` at the site.

pub fn canary_snapshot(path: &str) -> usize {
    std::fs::read(path).map(|b| b.len()).unwrap_or(0)
}

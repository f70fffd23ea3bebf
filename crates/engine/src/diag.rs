//! The sanctioned stderr diagnostics sink.
//!
//! The root `clippy.toml` refuses `std::{fs,io,net}` effects — the
//! `print!` family included — everywhere but `engine::checkpoint`, this
//! function and the bench crate (DESIGN.md §10), and the sim crates
//! cannot depend on engine, so they stay effect-free ahead of the
//! daemon-ize split. Anything in the orchestration layer that needs to
//! talk to a human (degraded-coverage tables, partial-result banners)
//! routes through here instead of calling `eprintln!` directly: one
//! module to redirect when diagnostics move onto the daemon's control
//! socket, and one waiver in the workspace.
//!
//! stderr only — stdout is reserved for byte-diffable experiment tables
//! and never written from here.

/// Writes one diagnostic line to stderr.
///
/// Deliberately line-oriented rather than `fmt::Arguments`-generic: the
/// call sites this sink exists for (coverage tables, degradation
/// summaries) already build their text, and a `&str` boundary keeps the
/// future daemon IPC framing trivial.
#[expect(clippy::disallowed_macros, reason = "the one sanctioned stderr sink")]
pub fn note(msg: &str) {
    eprintln!("{msg}");
}

#[cfg(test)]
mod tests {
    // `note` writes to the process stderr; asserting on that stream from
    // inside the process would require capturing it (an I/O effect the
    // rest of the crate must not grow). The smoke test just proves the
    // call compiles and returns.
    #[test]
    fn note_is_callable() {
        super::note("engine::diag self-test line");
    }
}

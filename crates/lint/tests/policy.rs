//! The invariants the lint leaves to rustc and clippy, pinned where those
//! tools read them: the manifests' `[lints]` tables, the crate-level
//! attributes and the root `clippy.toml`. A new crate without the table, a
//! hot-path crate that drops its clippy deny, or a `clippy.toml` that stops
//! refusing host byte order fails here rather than going unchecked.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use lookaside_lint::rules::HOT_PATH;

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    let path = repo().join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The `key=value` lines of one TOML table, whitespace removed.
fn table(manifest: &str, header: &str) -> Vec<String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect())
        .collect()
}

#[test]
fn the_workspace_forbids_unsafe_code() {
    let lints = table(&read("Cargo.toml"), "[workspace.lints.rust]");
    assert!(lints.iter().any(|l| l == r#"unsafe_code="forbid""#), "{lints:?}");
}

#[test]
fn every_crate_but_bench_inherits_the_workspace_lints() {
    // bench's counting allocators are `unsafe impl GlobalAlloc`; its
    // `lib.rs` forbids unsafe code for the library target alone.
    for entry in fs::read_dir(repo().join("crates")).expect("crates/ is listable") {
        let dir = entry.expect("crates/ entry").path();
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() && !dir.ends_with("bench") {
            let lints = table(&fs::read_to_string(&manifest).expect("readable"), "[lints]");
            assert_eq!(lints, ["workspace=true"], "{}", manifest.display());
        }
    }
}

#[test]
fn hot_path_crates_deny_the_clippy_panic_lints() {
    // `semantic::panic-reachable` skips these crates' sites on the
    // strength of this attribute (compared with whitespace removed).
    let deny = "#![cfg_attr(not(test),deny(clippy::unwrap_used,clippy::expect_used,\
                clippy::panic,clippy::todo,clippy::unimplemented,clippy::unreachable))]";
    for krate in HOT_PATH {
        let lib: String = read(&format!("crates/{krate}/src/lib.rs")).split_whitespace().collect();
        assert!(lib.contains(deny), "crates/{krate}/src/lib.rs lacks {deny}");
    }
}

/// Runs clippy with the repository's `clippy.toml` over one source file,
/// warnings denied as in ci.sh, and counts its disallowed-method errors.
fn disallowed_method_errors(name: &str, source: &str) -> usize {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let file = dir.join(format!("{name}.rs"));
    fs::write(&file, source).expect("the target tmpdir is writable");
    // The toolchain's clippy, next to the cargo that built this test.
    let clippy = Path::new(env!("CARGO")).with_file_name("clippy-driver");
    let out = Command::new(&clippy)
        .env("CLIPPY_CONF_DIR", repo())
        .args(["--edition=2021", "--crate-type=lib", "--emit=metadata", "-Dwarnings"])
        .arg("--out-dir")
        .arg(dir)
        .arg(&file)
        .output()
        .unwrap_or_else(|e| panic!("running {}: {e}", clippy.display()));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let hits = stderr.matches("use of a disallowed method").count();
    assert_eq!(out.status.success(), hits == 0, "{stderr}");
    hits
}

#[test]
fn clippy_refuses_host_byte_order_in_every_call_form() {
    // `x: &T` is the receiver a `JournalCodec` impl has (`&self`), the
    // form clippy's `host_endian_bytes` lets through; the decode is a
    // path call. The same source with `_le_` is the control.
    const TYPES: [&str; 12] =
        ["u16", "u32", "u64", "u128", "usize", "i16", "i32", "i64", "i128", "isize", "f32", "f64"];
    let source: String = TYPES
        .iter()
        .map(|t| {
            format!("pub fn f_{t}(x: &{t}) -> {t} {{ {t}::from_ne_bytes(x.to_ne_bytes()) }}\n")
        })
        .collect();
    assert_eq!(disallowed_method_errors("little_endian", &source.replace("_ne_", "_le_")), 0);
    assert_eq!(disallowed_method_errors("host_endian", &source), 2 * TYPES.len());
}

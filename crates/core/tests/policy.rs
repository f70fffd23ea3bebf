//! The static invariants, pinned where their checkers read them: the
//! manifests' `[lints]` tables and dependency lists, the deny line in each
//! library's `lib.rs`, and the root `clippy.toml`. A new crate without the
//! table or the line, a sim crate that grows a dependency on the
//! orchestration layer, or a `clippy.toml` entry that stops biting fails
//! here rather than going unchecked. Each clippy test runs the toolchain's
//! `clippy-driver` over a small source, once with the banned form and once
//! with a clean control.

#![expect(clippy::disallowed_methods, reason = "reads manifests and writes clippy inputs")]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The simulation crates. They may depend only on each other, so Cargo
/// itself keeps them from reaching engine, core or bench, and through them
/// any file or stdio effect.
const SIM_CRATES: [&str; 8] =
    ["wire", "crypto", "zone", "netsim", "server", "resolver", "workload", "population"];

/// The deny line every library crate carries, whitespace removed.
const PANIC_DENY: &str = "#![cfg_attr(not(test),deny(clippy::unwrap_used,clippy::expect_used,\
    clippy::panic,clippy::todo,clippy::unimplemented,clippy::unreachable,\
    clippy::indexing_slicing,clippy::string_slice,clippy::allow_attributes,\
    clippy::allow_attributes_without_reason))]";

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Every crate directory under `crates/` but bench, the command-line
/// boundary: the library crates.
fn library_crates() -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(repo().join("crates"))
        .expect("crates/ is listable")
        .map(|entry| entry.expect("crates/ entry").path())
        .filter(|dir| dir.join("Cargo.toml").is_file() && !dir.ends_with("bench"))
        .collect();
    dirs.sort();
    assert!(dirs.len() >= 10, "{dirs:?}");
    dirs
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
    let lints = table(&read(&repo().join("Cargo.toml")), "[workspace.lints.rust]");
    assert!(lints.iter().any(|l| l == r#"unsafe_code="forbid""#), "{lints:?}");
}

#[test]
fn every_crate_but_bench_inherits_the_workspace_lints() {
    // bench's allocation tests count with `unsafe impl GlobalAlloc`; its
    // `lib.rs` forbids unsafe code for the library target alone.
    for dir in library_crates() {
        let manifest = dir.join("Cargo.toml");
        let lints = table(&read(&manifest), "[lints]");
        assert_eq!(lints, ["workspace=true"], "{}", manifest.display());
    }
}

#[test]
fn every_library_crate_denies_the_clippy_panic_lints() {
    let deny: String = PANIC_DENY.split_whitespace().collect();
    for dir in library_crates() {
        let lib = dir.join("src/lib.rs");
        let text: String = read(&lib).split_whitespace().collect();
        assert!(text.contains(&deny), "{} lacks {PANIC_DENY}", lib.display());
    }
}

#[test]
fn sim_crates_depend_only_on_sim_crates() {
    // serde is the one outside name: its offline derives expand to nothing.
    for krate in SIM_CRATES {
        let manifest = repo().join(format!("crates/{krate}/Cargo.toml"));
        for line in table(&read(&manifest), "[dependencies]") {
            let dep = line.split('=').next().unwrap_or_default();
            let sim = dep.strip_prefix("lookaside-").is_some_and(|d| SIM_CRATES.contains(&d));
            assert!(sim || dep == "serde", "{} depends on {dep}", manifest.display());
        }
    }
}

#[test]
fn no_library_source_indexes_a_map() {
    // `m[&k]` panics on a missing key, and clippy's `indexing_slicing`
    // does not see map indexing. The scan finds the `[&` form directly
    // after an expression; `m[k]` with `k` already a reference slips past
    // (DESIGN.md §10).
    let mut hits = Vec::new();
    let mut stack: Vec<PathBuf> = library_crates().iter().map(|dir| dir.join("src")).collect();
    while let Some(path) = stack.pop() {
        if path.is_dir() {
            stack.extend(fs::read_dir(&path).expect("listable").map(|e| e.expect("entry").path()));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            for (n, line) in read(&path).lines().enumerate() {
                let indexed = line.match_indices("[&").any(|(at, _)| {
                    line[..at]
                        .chars()
                        .next_back()
                        .is_some_and(|c| c.is_alphanumeric() || matches!(c, '_' | ')' | ']'))
                });
                if indexed {
                    hits.push(format!("{}:{}: {}", path.display(), n + 1, line.trim()));
                }
            }
        }
    }
    assert!(hits.is_empty(), "map indexing panics on a missing key; use `get`:\n{hits:#?}");
}

/// Runs clippy with the repository's `clippy.toml` over one library
/// source, warnings denied as in ci.sh, and returns its error messages.
fn clippy_errors(name: &str, source: &str) -> Vec<String> {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let file = dir.join(format!("{name}.rs"));
    fs::write(&file, source).expect("the target tmpdir is writable");
    // The toolchain's clippy, next to the cargo that built this test.
    let clippy = Path::new(env!("CARGO")).with_file_name("clippy-driver");
    let out = Command::new(&clippy)
        .env("CLIPPY_CONF_DIR", repo())
        .args(["--edition=2021", "--crate-type=lib", "--emit=metadata", "-Dwarnings"])
        .arg("--crate-name")
        .arg(name)
        .arg("--out-dir")
        .arg(dir)
        .arg(&file)
        .output()
        .unwrap_or_else(|e| panic!("running {}: {e}", clippy.display()));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let errors: Vec<String> = stderr
        .lines()
        .filter(|l| l.starts_with("error") && !l.starts_with("error: aborting"))
        .map(String::from)
        .collect();
    assert_eq!(out.status.success(), errors.is_empty(), "{stderr}");
    errors
}

/// Requires clippy to pass over `source`.
fn assert_clean(name: &str, source: &str) {
    let errors = clippy_errors(name, source);
    assert!(errors.is_empty(), "{errors:#?}");
}

/// Requires `errors` to be exactly `count` errors, each carrying `message`
/// and each naming something different (one per banned use).
fn assert_errors(errors: &[String], message: &str, count: usize) {
    assert_eq!(errors.len(), count, "{errors:#?}");
    let distinct: std::collections::BTreeSet<&String> = errors.iter().collect();
    assert_eq!(distinct.len(), count, "{errors:#?}");
    assert!(errors.iter().all(|e| e.contains(message)), "not all {message:?}: {errors:#?}");
}

/// Requires `errors` to be one error per message.
fn assert_each_once(errors: &[String], messages: &[&str]) {
    assert_eq!(errors.len(), messages.len(), "{errors:#?}");
    for message in messages {
        assert_eq!(errors.iter().filter(|e| e.contains(message)).count(), 1, "{errors:#?}");
    }
}

#[test]
fn clippy_refuses_host_byte_order_in_every_call_form() {
    // `x: &T` is the receiver a codec method has (`&self`), the
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
    assert_clean("little_endian", &source.replace("_ne_", "_le_"));
    let errors = clippy_errors("host_endian", &source);
    assert_errors(&errors, "use of a disallowed method", 2 * TYPES.len());
}

#[test]
fn clippy_refuses_every_banned_type_method_and_macro() {
    // One use per entry of the root clippy.toml's three lists, so each
    // entry must draw exactly one error.
    const TYPES: [&str; 10] = [
        "std::collections::HashMap<u8, u8>",
        "std::collections::HashSet<u8>",
        "std::hash::RandomState",
        "std::hash::DefaultHasher",
        "std::fs::File",
        "std::fs::OpenOptions",
        "std::fs::DirBuilder",
        "std::net::TcpStream",
        "std::net::TcpListener",
        "std::net::UdpSocket",
    ];
    const CALLS: [&str; 28] = [
        "std::time::Instant::now()",
        "std::time::SystemTime::now()",
        "std::thread::current()",
        "std::env::var(\"K\")",
        "std::env::var_os(\"K\")",
        "std::env::vars()",
        "std::env::vars_os()",
        "std::fs::canonicalize(\"p\")",
        "std::fs::copy(\"p\", \"q\")",
        "std::fs::create_dir(\"p\")",
        "std::fs::create_dir_all(\"p\")",
        "std::fs::exists(\"p\")",
        "std::fs::hard_link(\"p\", \"q\")",
        "std::fs::metadata(\"p\")",
        "std::fs::read(\"p\")",
        "std::fs::read_dir(\"p\")",
        "std::fs::read_link(\"p\")",
        "std::fs::read_to_string(\"p\")",
        "std::fs::remove_dir(\"p\")",
        "std::fs::remove_dir_all(\"p\")",
        "std::fs::remove_file(\"p\")",
        "std::fs::rename(\"p\", \"q\")",
        "std::fs::set_permissions(\"p\", perm.clone())",
        "std::fs::symlink_metadata(\"p\")",
        "std::fs::write(\"p\", b\"\")",
        "std::io::stdin()",
        "std::io::stdout()",
        "std::io::stderr()",
    ];
    // With no argument, `println!()` expands to `print!`, a second hit.
    const MACROS: [&str; 4] =
        ["print!(\"x\")", "println!(\"x\")", "eprint!(\"x\")", "eprintln!(\"x\")"];
    let types: String =
        TYPES.iter().enumerate().map(|(i, t)| format!("pub fn t{i}(_: &{t}) {{}}\n")).collect();
    // `perm` feeds `set_permissions`; the tuple uses it everywhere else.
    let calls: String = CALLS
        .iter()
        .enumerate()
        .map(|(i, c)| {
            format!("pub fn c{i}(perm: &std::fs::Permissions) {{ let _ = ({c}, perm); }}\n")
        })
        .collect();
    let macros: String =
        MACROS.iter().enumerate().map(|(i, m)| format!("pub fn m{i}() {{ {m}; }}\n")).collect();
    assert_errors(&clippy_errors("banned_types", &types), "use of a disallowed type", TYPES.len());
    let errors = clippy_errors("banned_calls", &calls);
    assert_errors(&errors, "use of a disallowed method", CALLS.len());
    let errors = clippy_errors("banned_macros", &macros);
    assert_errors(&errors, "use of a disallowed macro", MACROS.len());
    let control = "pub fn t(_: &std::collections::BTreeMap<u8, u8>) {}\n\
                   pub fn c(x: u32) -> [u8; 4] { x.to_le_bytes() }\n\
                   pub fn m() -> String { format!(\"{}\", 1) }\n";
    assert_clean("banned_control", control);
}

#[test]
fn clippy_refuses_panics_under_the_library_deny_line() {
    let banned = "pub fn unwrap(x: Option<u8>) -> u8 { x.unwrap() }\n\
                  pub fn index(s: &[u8]) -> u8 { s[0] }\n\
                  pub fn slice(s: &str) -> &str { &s[1..] }\n";
    let control = "pub fn unwrap(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n\
                   pub fn index(s: &[u8]) -> u8 { s.first().copied().unwrap_or(0) }\n\
                   pub fn slice(s: &str) -> &str { s.get(1..).unwrap_or(\"\") }\n";
    assert_each_once(
        &clippy_errors("panic_banned", &format!("{PANIC_DENY}\n{banned}")),
        &[
            "used `unwrap()` on an `Option` value",
            "indexing may panic",
            "indexing into a string may panic",
        ],
    );
    assert_clean("panic_control", &format!("{PANIC_DENY}\n{control}"));
}

#[test]
fn clippy_refuses_a_reasonless_allow() {
    let allow = format!("{PANIC_DENY}\n#[allow(dead_code)]\nfn unused() {{}}\n");
    let expect = format!(
        "{PANIC_DENY}\n#[expect(dead_code, reason = \"kept for a caller\")]\nfn unused() {{}}\n"
    );
    assert_each_once(
        &clippy_errors("reasonless_allow", &allow),
        &["#[allow] attribute found", "`allow` attribute without specifying a reason"],
    );
    assert_clean("reasoned_expect", &expect);
}

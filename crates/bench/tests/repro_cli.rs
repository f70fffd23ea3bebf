//! The `repro` command line rejects what it does not know: an unknown
//! experiment or flag exits with status 2 and the usage line on stderr,
//! instead of printing nothing and succeeding. A Fig. 12 journal it
//! cannot use exits with status 3 and leaves the file as it found it.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro starts")
}

fn assert_usage_error(args: &[&str], complaint: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "repro {args:?} printed to stdout");
    assert!(stderr.contains(complaint), "repro {args:?}: {stderr}");
    assert!(stderr.contains("usage: repro"), "repro {args:?}: {stderr}");
}

#[test]
fn unknown_experiment_is_a_usage_error() {
    assert_usage_error(&["nosuch"], "unknown experiment \"nosuch\"");
}

#[test]
fn removed_batch_flag_is_a_usage_error() {
    assert_usage_error(&["--batch"], "unknown flag \"--batch\"");
}

#[test]
fn known_experiment_with_inline_jobs_runs() {
    let out = repro(&["table1", "--jobs=2"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("== Table 1: resolver versions per environment =="), "{stdout}");
    assert!(!stdout.contains("Table 2"), "only the named section runs: {stdout}");
}

#[test]
fn refused_journal_exits_3_and_is_left_untouched() {
    let mut path = std::env::temp_dir();
    path.push(format!("lookaside-repro-cli-{}-not-a-journal", std::process::id()));
    let junk = [0x5au8; 32];
    std::fs::write(&path, junk).expect("write junk journal");
    let out = repro(&["fig12", "--resume", path.to_str().expect("utf-8 temp path")]);
    let on_disk = std::fs::read(&path).expect("junk journal still there");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("repro: fig12 journal"), "{stderr}");
    assert!(stderr.contains("not a checkpoint journal"), "{stderr}");
    assert_eq!(on_disk, junk, "a refused journal must not be rewritten");
}

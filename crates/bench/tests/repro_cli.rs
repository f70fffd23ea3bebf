//! The `repro` command line rejects what it does not know: an unknown
//! experiment or flag exits with status 2 and the usage line on stderr,
//! instead of printing nothing and succeeding.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env_remove("LOOKASIDE_CHECKPOINT")
        .output()
        .expect("repro starts")
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

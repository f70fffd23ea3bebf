//! The `repro` command line rejects what it does not know: an unknown
//! experiment or flag exits with status 2 and the usage line on stderr,
//! instead of printing nothing and succeeding. A reader that closes
//! stdout early ends the run quietly with status 0; any other stdout
//! write error exits with status 1 and says why.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

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

/// `repro table3 | head -1`: the reader hangs up after the header, while
/// the table is still being computed.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("table3")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro starts");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    while !line.starts_with("== Table 3") {
        line.clear();
        let read = stdout.read_line(&mut line).expect("stdout reads");
        assert!(read > 0, "stdout ended before the Table 3 header");
    }
    drop(stdout);
    let out = child.wait_with_output().expect("repro exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "a closed pipe is not an error: {stderr}");
}

#[cfg(target_os = "linux")]
#[test]
fn a_stdout_write_error_exits_1_with_its_reason() {
    let full = std::fs::File::options().write(true).open("/dev/full").expect("/dev/full opens");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("table1")
        .stdout(full)
        .output()
        .expect("repro starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("repro: writing stdout: "), "{stderr}");
}

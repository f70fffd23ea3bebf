//! CLI entry point: walk the workspace, run the full analysis (lexical
//! rules + call graph + semantic passes) over every classified `.rs`
//! file, print findings + the per-rule summary, write the JSON report
//! and the DOT call-graph dump, and exit non-zero when any unsuppressed
//! finding remains.
//!
//! ```text
//! lookaside-lint [--root DIR] [--json PATH | --no-json] [--dot PATH | --no-dot]
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/IO error.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use lookaside_lint::{analyze, FileClass, SourceFile};

/// Top-level directories scanned relative to the workspace root.
const SCAN_DIRS: &[&str] = &["crates", "tests", "examples"];

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "shims", ".git", "fixtures"];

struct Args {
    root: PathBuf,
    json: Option<PathBuf>,
    dot: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        json: Some(PathBuf::from("target/ci/lint_report.json")),
        dot: Some(PathBuf::from("target/ci/call_graph.dot")),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => args.root = PathBuf::from(it.next().ok_or("--root needs a value")?),
            "--json" => args.json = Some(PathBuf::from(it.next().ok_or("--json needs a value")?)),
            "--no-json" => args.json = None,
            "--dot" => args.dot = Some(PathBuf::from(it.next().ok_or("--dot needs a value")?)),
            "--no-dot" => args.dot = None,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lookaside-lint: {e}");
            eprintln!(
                "usage: lookaside-lint [--root DIR] [--json PATH | --no-json] \
                 [--dot PATH | --no-dot]"
            );
            return ExitCode::from(2);
        }
    };

    let mut files = Vec::new();
    for dir in SCAN_DIRS {
        let top = args.root.join(dir);
        if top.is_dir() {
            if let Err(e) = collect_rs_files(&top, &mut files) {
                eprintln!("lookaside-lint: walking {}: {e}", top.display());
                return ExitCode::from(2);
            }
        }
    }
    files.sort();

    let mut sources = Vec::new();
    for path in &files {
        let rel = relative_slash(path, &args.root);
        let Some(class) = FileClass::classify(&rel) else { continue };
        let src = match fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("lookaside-lint: reading {rel}: {e}");
                return ExitCode::from(2);
            }
        };
        sources.push(SourceFile { class, src });
    }
    let analysis = analyze(sources);
    let report = analysis.report;

    for (what, path, contents) in [
        ("report", &args.json, report.render_json()),
        ("call graph", &args.dot, analysis.graph.render_dot()),
    ] {
        let Some(out_path) = path else { continue };
        let target =
            if out_path.is_absolute() { out_path.clone() } else { args.root.join(out_path) };
        if let Some(parent) = target.parent() {
            if let Err(e) = fs::create_dir_all(parent) {
                eprintln!("lookaside-lint: creating {}: {e}", parent.display());
                return ExitCode::from(2);
            }
        }
        if let Err(e) = fs::write(&target, contents) {
            eprintln!("lookaside-lint: writing {what} {}: {e}", target.display());
            return ExitCode::from(2);
        }
    }

    print!("{}", report.render_text());

    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Recursively collects `.rs` files, skipping [`SKIP_DIRS`].
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<Result<_, _>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `path` relative to `root`, with forward slashes.
fn relative_slash(path: &Path, root: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

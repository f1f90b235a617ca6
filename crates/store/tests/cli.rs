//! Exit-code smoke tests for the `ic-store` operator CLI.
//!
//! An operator tool fails like a tool, not like a library: every bad
//! input — missing path, truncated file, malformed flags, unknown
//! command — must produce a **nonzero exit status** and a single typed
//! `ic-store: ...` line on stderr. Never a panic message, never a
//! backtrace.

use ic_graph::{graph_from_edges, WeightedGraph};
use ic_store::StoreBuilder;
use scratch::ScratchDir;
use std::path::Path;
use std::process::{Command, Output};

#[path = "../../../tests/common/scratch.rs"]
mod scratch;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ic-store"))
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("spawn ic-store")
}

/// The failure contract: nonzero exit, one `ic-store: ` line on stderr,
/// no panic chatter.
fn assert_fails_typed(out: &Output, context: &str) {
    assert!(
        !out.status.success(),
        "{context}: expected nonzero exit, got {:?}",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("ic-store: "),
        "{context}: stderr must lead with the typed prefix, got {stderr:?}"
    );
    assert_eq!(
        stderr.trim_end().lines().count(),
        1,
        "{context}: exactly one diagnostic line, got {stderr:?}"
    );
    for needle in ["panicked at", "RUST_BACKTRACE", "stack backtrace"] {
        assert!(
            !stderr.contains(needle),
            "{context}: stderr leaked panic machinery ({needle}): {stderr:?}"
        );
    }
}

/// A tiny but valid store file to corrupt/truncate.
fn write_valid_store(path: &Path) {
    let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
    let wg = WeightedGraph::new(g, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
    let builder = StoreBuilder::new(&wg);
    builder.write_to(path).unwrap();
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    assert_fails_typed(&run(&[]), "no arguments");
}

#[test]
fn unknown_command_fails_typed() {
    assert_fails_typed(&run(&["frobnicate"]), "unknown command");
}

#[test]
fn missing_store_path_fails_typed() {
    for cmd in ["inspect", "verify"] {
        assert_fails_typed(
            &run(&[cmd, "/nonexistent/definitely-not-here.ics1"]),
            &format!("{cmd} on a missing path"),
        );
        // And with no path at all.
        assert_fails_typed(&run(&[cmd]), &format!("{cmd} with no path"));
    }
}

#[test]
fn truncated_store_fails_closed() {
    let dir = ScratchDir::new("store-cli-truncated");
    let path = dir.join("store.ics1");
    write_valid_store(&path);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    for cmd in ["inspect", "verify"] {
        assert_fails_typed(
            &run(&[cmd, path.to_str().unwrap()]),
            &format!("{cmd} on a truncated file"),
        );
    }
}

#[test]
fn corrupt_store_fails_closed() {
    let dir = ScratchDir::new("store-cli-corrupt");
    let path = dir.join("store.ics1");
    write_valid_store(&path);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    assert_fails_typed(
        &run(&["verify", path.to_str().unwrap()]),
        "verify on a flipped byte",
    );
}

#[test]
fn malformed_flags_fail_typed() {
    let dir = ScratchDir::new("store-cli-flags");
    let path = dir.join("store.ics1");
    write_valid_store(&path);
    let p = path.to_str().unwrap();
    let cases: &[&[&str]] = &[
        &["query", p],                                              // no --k/--r
        &["query", p, "--k", "abc", "--r", "2"],                    // non-numeric k
        &["query", p, "--k", "2", "--r", "0"],                      // invalid r
        &["query", p, "--k", "2", "--r", "2", "--agg", "median"],   // unknown agg
        &["query", p, "--k", "2", "--r", "2", "--epsilon", "nope"], // bad float
        &["build", "--out"],                                        // flag without value
        &["build", "--dataset", "no-such-dataset", "--out", "x.ics1"],
    ];
    for args in cases {
        assert_fails_typed(&run(args), &format!("args {args:?}"));
    }
}

#[test]
fn happy_path_still_exits_zero() {
    let dir = ScratchDir::new("store-cli-ok");
    let path = dir.join("store.ics1");
    write_valid_store(&path);
    let out = run(&["inspect", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "inspect on a valid store must succeed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

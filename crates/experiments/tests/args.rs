//! The experiment binaries refuse a malformed command line before they
//! measure anything: one `error:` line, nothing on stdout, exit 2 for a
//! usage error and 1 for a bad value.

use std::process::Command;

fn rejects(exe: &str, args: &[&str], code: i32, message: &str) {
    let out = Command::new(exe)
        .args(args)
        .env("PSC_CACHE", "0")
        .output()
        .expect("failed to launch the experiment binary");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
    assert_eq!(out.stdout, b"", "{args:?} must print nothing to stdout");
    assert_eq!(stderr, format!("error: {message}\n"), "args: {args:?}");
}

#[test]
fn misspelled_test_switch_is_a_usage_error() {
    rejects(env!("CARGO_BIN_EXE_fig1"), &["--tset"], 2, "unexpected flag '--tset'");
}

#[test]
fn non_numeric_seed_is_a_bad_value() {
    rejects(
        env!("CARGO_BIN_EXE_ablate-faults"),
        &["--seed", "x"],
        1,
        "invalid value for --seed: 'x'",
    );
}

#[test]
fn fault_flags_are_not_ablate_faults_flags() {
    // The ablation picks every engine's fault plan itself.
    rejects(
        env!("CARGO_BIN_EXE_ablate-faults"),
        &["--test", "--fault-seed", "3"],
        2,
        "unexpected flag '--fault-seed'",
    );
}

//! The `elsc-sim` binary end to end: bad input is an error (exit 1 with
//! a message on stderr), never a panic (exit 101).

use std::process::Command;

/// Runs `elsc-sim` with `args`; returns the exit code and stderr.
fn elsc_sim(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_elsc-sim"))
        .args(args)
        .output()
        .expect("elsc-sim runs");
    let code = out.status.code().expect("exited, not killed");
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

/// Asserts that `args` is rejected cleanly, naming `option`.
fn rejects(args: &[&str], option: &str) {
    let (code, stderr) = elsc_sim(args);
    assert_eq!(code, 1, "{args:?}: exit {code}, stderr: {stderr}");
    assert!(
        stderr.contains(&format!("error: --{option} must be at least 1")),
        "{args:?}: {stderr}"
    );
}

#[test]
fn volano_with_zero_rooms_is_an_input_error() {
    rejects(&["volano", "--rooms", "0", "--quiet"], "rooms");
}

#[test]
fn volano_with_zero_users_is_an_input_error() {
    rejects(&["volano", "--users", "0", "--quiet"], "users");
}

#[test]
fn kbuild_with_zero_jobs_is_an_input_error() {
    rejects(&["kbuild", "--jobs", "0", "--quiet"], "jobs");
}

#[test]
fn httpd_with_zero_workers_is_an_input_error() {
    rejects(&["httpd", "--workers", "0", "--quiet"], "workers");
}

#[test]
fn cluster_with_zero_rooms_is_an_input_error() {
    rejects(&["cluster", "--rooms", "0", "--quiet"], "rooms");
}

#[test]
fn positive_counts_still_run() {
    let (code, stderr) = elsc_sim(&[
        "volano",
        "--rooms",
        "1",
        "--users",
        "2",
        "--messages",
        "1",
        "--quiet",
    ]);
    assert_eq!(code, 0, "{stderr}");
}

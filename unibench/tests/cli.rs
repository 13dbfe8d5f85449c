//! The binary's strict command line: usage errors and a tampered
//! environment exit 2 before any work, `--help` runs nothing.

use std::process::Command;

fn unibench(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_unibench"));
    cmd.args(args).env_remove("UNICERT_THREADS");
    cmd
}

#[test]
fn help_prints_usage_and_runs_nothing() {
    let out = unibench(&["--help"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: unibench"));
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for args in [
        &["--workload", "ct_survey", "--sed", "3"][..],
        &["--workload", "ct_survey", "--seed", "seven"],
        &["--workload", "ct_survey", "--trace", "yes"],
        &["--workload", "no_such_workload"],
        &[],
    ] {
        let out = unibench(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn unicert_settings_in_the_environment_exit_2() {
    for var in [
        "UNICERT_THREADS",
        "UNICERT_SHARD_SIZE",
        "UNICERT_PROFILE",
        "UNICERT_METRICS",
        "UNICERT_TRACE",
    ] {
        let out = unibench(&["--workload", "ct_survey"])
            .env(var, "1")
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{var}");
        assert!(out.stdout.is_empty(), "{var}");
    }
}

//! `bench_json` argument handling: `--help` prints usage and exits 0, a
//! bad argument prints usage and exits 2 (neither runs the benchmark).

use std::process::Command;

fn bench_json(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench_json"))
        .args(args)
        .output()
        .expect("bench_json runs")
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = bench_json(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("USAGE:"),
            "{flag}"
        );
    }
}

#[test]
fn bad_arguments_print_usage_and_exit_two() {
    for args in [&["--bogus"][..], &["--out"][..]] {
        let out = bench_json(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("USAGE:"),
            "{args:?}"
        );
    }
}

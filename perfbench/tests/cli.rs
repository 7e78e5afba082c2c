//! The command end to end, on tiny versions of every workload.

use std::process::{Command, Output};

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn legal_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Run every workload with `seed` in both modes; every check must pass,
/// and every metric line and result entry must carry a legal name and a
/// unit.
fn passes_every_check(seed: &str) {
    for trace in ["0", "1"] {
        let out = perfbench(&[
            "--workload",
            "all",
            "--size",
            "tiny",
            "--seed",
            seed,
            "--seconds",
            "0",
            "--trace",
            trace,
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "seed {seed} trace {trace} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let mut metric_lines = 0;
        for line in stdout.lines().filter(|l| l.starts_with("metric ")) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(
                fields.len(),
                5,
                "metric <workload> <name> <value> <unit>: {line}"
            );
            assert!(legal_name(fields[2]), "illegal metric name in {line}");
            assert!(fields[3].parse::<f64>().is_ok_and(f64::is_finite), "{line}");
            assert!(!fields[4].is_empty(), "metric without a unit: {line}");
            metric_lines += 1;
        }
        assert!(metric_lines > 0);
        for workload in ["asap-crawled", "walk-xl", "asap-loopback"] {
            assert!(
                stdout.contains(&format!("fingerprint {workload} seed ")),
                "no fingerprint for {workload}"
            );
        }
        let result = stdout.lines().last().expect("a result line");
        assert!(
            result.starts_with("{\"correct\": true, \"attempted\": "),
            "{result}"
        );
        assert!(result.contains("\"failed\": 0, \"metrics\": {"), "{result}");
        let entries = result.matches("{\"value\": ").count();
        assert_eq!(
            entries, metric_lines,
            "every printed metric is in the result"
        );
        assert_eq!(result.matches("\"unit\": \"").count(), entries);
    }
}

#[test]
fn a_second_seed_passes_every_check() {
    passes_every_check("7");
}

#[test]
fn repeated_invocations_print_identical_fingerprints() {
    let fingerprints = || {
        let out = perfbench(&[
            "--workload",
            "asap-crawled",
            "--size",
            "tiny",
            "--seed",
            "3",
            "--seconds",
            "0",
        ]);
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.starts_with("fingerprint ") || l.contains(" success_rate "))
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    assert_eq!(fingerprints(), fingerprints());
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "asap-xl"][..],
        &["--workload", "walk-xl", "--trace", "2"],
        &["--seed", "1"],
        &["--workload", "walk-xl", "--bogus", "1"],
    ] {
        let out = perfbench(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    }
}

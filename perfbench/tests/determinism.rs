//! The deterministic counters repeat exactly across processes given one
//! seed, and move with the seed where the workload's work depends on it.
//!
//! Runs the built benchmark binary on short traced runs; use `--release`,
//! the debug engine is slow.

use std::process::Command;

/// Run one short traced run and return its JSON result line.
fn traced_run(workload: &str, seed: u64) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.5", "--trace", "1"])
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line").to_string();
    assert!(
        last.starts_with("{\"correct\": true,") && last.contains("\"failed\": 0,"),
        "{workload} seed {seed}: {last}"
    );
    last
}

/// The value of metric `name` in a result line.
fn metric(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line.find(&key).unwrap_or_else(|| panic!("{name} missing")) + key.len();
    let rest = &line[at..];
    rest[..rest.find(',').expect("value ends")]
        .parse()
        .expect("numeric value")
}

const COUNTERS: [&str; 5] = [
    "derivations_per_op",
    "converge_ticks",
    "msgs_per_converge",
    "netsim.events",
    "allocs_per_op",
];

#[test]
fn counters_repeat_with_one_seed_and_follow_the_seed() {
    for workload in ["cold_build", "churn_read", "dist_converge"] {
        let a = traced_run(workload, 7);
        let b = traced_run(workload, 7);
        for name in COUNTERS {
            assert_eq!(metric(&a, name), metric(&b, name), "{workload}: {name}");
        }
        assert!(
            metric(&a, "allocs_per_op") > 0.0,
            "{workload}: allocs counted"
        );
        assert!(
            metric(&a, "derivations_per_op") > 0.0,
            "{workload}: work done"
        );
    }
    // cold_build relabels one topology, so its work is seed-independent by
    // design; the other two draw seed-dependent churn.
    for (workload, name) in [
        ("churn_read", "derivations_per_op"),
        ("dist_converge", "msgs_per_converge"),
    ] {
        let a = traced_run(workload, 7);
        let c = traced_run(workload, 8);
        assert_ne!(metric(&a, name), metric(&c, name), "{workload}: {name}");
    }
}

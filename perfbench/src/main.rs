//! End-to-end benchmark of the NDlog engine.
//!
//! ```text
//! perfbench --workload <cold_build|churn_read|dist_converge> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run replays a fixed sequence of ops drawn from the seed, checks
//! every output against a reference database, and prints a human-readable
//! report followed by one JSON line: the end-to-end metrics (telemetry off)
//! with `--trace 0`, the per-layer table (telemetry on, paired with
//! untraced ops) with `--trace 1`.  `README.md` explains the workloads.

mod churn_read;
mod cold_build;
mod dist_converge;
mod inputs;
mod measure;

use ndlog::Database;
use std::collections::BTreeMap;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: fvn_bench::CountingAlloc = fvn_bench::CountingAlloc;

/// Builds of the set-up's reference database in a run; `setup_s` is the
/// median time of one.
pub const SETUP_REPS: usize = 9;

/// End-to-end metrics, reported on every workload with telemetry off.
/// `op_p90_ms` is printed beside them but not bounded: on the shared
/// reference host the slow phases decide which speed level a run's p90
/// falls on, and its spread over ten runs reached 27%, past any bound the
/// benchmark may set.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: name, unit, the module it measures, and the
/// end-to-end metric(s) it is expected to move.  Every traced run reports
/// all of them; a layer a workload does not load reads 0 there.  Times are
/// per-op means in ms unless the name says otherwise.
pub const PER_LAYER: [(&str, &str, &str, &str); 42] = [
    ("parse_ms", "ms", "ndlog::parser", "cold_build/op_p50_ms"),
    (
        "analyze_ms",
        "ms",
        "ndlog::safety (timed outside the build)",
        "cold_build/op_p50_ms",
    ),
    (
        "algo.phase_ms",
        "ms",
        "ndlog::algo (ndlog_phase_algo_ns)",
        "cold_build/op_p50_ms",
    ),
    (
        "algo.run_ms",
        "ms",
        "ndlog::algo recognize + AlgoOp::run (timed outside)",
        "cold_build/op_p50_ms",
    ),
    (
        "algo.install_ms",
        "ms",
        "ndlog::algo install = phase - run (by subtraction)",
        "cold_build/op_p50_ms",
    ),
    (
        "algo.output_tuples",
        "count",
        "ndlog::algo",
        "cold_build/op_p50_ms",
    ),
    (
        "counting_ms",
        "ms",
        "ndlog::incremental counting",
        "churn_read/op_p50_ms cold_build/op_p50_ms dist_converge/op_p50_ms",
    ),
    (
        "aggregates_ms",
        "ms",
        "ndlog::incremental aggregates",
        "churn_read/op_p50_ms cold_build/op_p50_ms dist_converge/op_p50_ms",
    ),
    (
        "zset_propagate_ms",
        "ms",
        "ndlog::incremental z-set propagate",
        "churn_read/op_p50_ms dist_converge/op_p50_ms",
    ),
    (
        "zset_verify_ms",
        "ms",
        "ndlog::incremental z-set verify (its re-propagation also in zset_propagate_ms)",
        "churn_read/op_p50_ms dist_converge/op_p50_ms",
    ),
    (
        "derivations_per_op",
        "count",
        "ndlog::incremental",
        "cold_build/op_p50_ms churn_read/op_p50_ms dist_converge/op_p50_ms",
    ),
    (
        "tuples_changed_per_op",
        "count",
        "ndlog::incremental",
        "churn_read/op_p50_ms",
    ),
    (
        "retraction_work",
        "count",
        "ndlog::incremental z-set retraction work per op",
        "churn_read/op_p50_ms",
    ),
    (
        "commit_p50_ms",
        "ms",
        "ndlog::update Txn::commit",
        "churn_read/op_p50_ms",
    ),
    (
        "commit_p90_ms",
        "ms",
        "ndlog::update Txn::commit",
        "churn_read/ops_per_s",
    ),
    (
        "commit_other_ms",
        "ms",
        "ndlog::update commit - engine phases (by subtraction)",
        "churn_read/op_p50_ms",
    ),
    (
        "query_p50_ms",
        "ms",
        "ndlog::query Session::query",
        "churn_read/op_p50_ms",
    ),
    (
        "query_p90_ms",
        "ms",
        "ndlog::query Session::query",
        "churn_read/ops_per_s",
    ),
    (
        "query.derivations",
        "count",
        "ndlog::query per query",
        "churn_read/op_p50_ms",
    ),
    (
        "query.demanded",
        "count",
        "ndlog::query per query",
        "churn_read/op_p50_ms",
    ),
    (
        "query.answers",
        "count",
        "ndlog::query per query",
        "churn_read/op_p50_ms",
    ),
    (
        "query.rewritten_frac",
        "frac",
        "ndlog::query magic-set plans / queries",
        "churn_read/op_p50_ms",
    ),
    (
        "runtime.open_ms",
        "ms",
        "ndlog-runtime::engine DistRuntime::open",
        "dist_converge/op_p50_ms",
    ),
    (
        "runtime.run_ms",
        "ms",
        "ndlog-runtime::engine DistRuntime::run",
        "dist_converge/op_p50_ms",
    ),
    (
        "runtime.engine_ms",
        "ms",
        "node engine phases inside run",
        "dist_converge/op_p50_ms",
    ),
    (
        "runtime.other_ms",
        "ms",
        "link + reliability layers + netsim dispatch = run - engine (by subtraction)",
        "dist_converge/op_p50_ms",
    ),
    (
        "runtime.retransmits",
        "count",
        "ndlog-runtime reliability layer per episode",
        "dist_converge/op_p50_ms",
    ),
    (
        "runtime.dup_suppressed",
        "count",
        "ndlog-runtime reliability layer per episode",
        "dist_converge/op_p50_ms",
    ),
    (
        "runtime.reships",
        "count",
        "ndlog-runtime recovery re-ships per episode",
        "dist_converge/op_p50_ms",
    ),
    (
        "runtime.delivery_frac",
        "frac",
        "ndlog-runtime received / sent",
        "dist_converge/op_p50_ms",
    ),
    (
        "converge_ticks",
        "ticks",
        "netsim time of the last state change, median per episode",
        "dist_converge/op_p50_ms",
    ),
    (
        "msgs_per_converge",
        "count",
        "netsim delivered messages, median per episode",
        "dist_converge/op_p50_ms",
    ),
    (
        "netsim.events",
        "count",
        "netsim events per episode",
        "dist_converge/op_p50_ms",
    ),
    (
        "netsim.dropped",
        "count",
        "netsim dropped messages per episode",
        "dist_converge/op_p50_ms",
    ),
    (
        "netsim.end_time",
        "ticks",
        "netsim time of the last event per episode",
        "dist_converge/op_p50_ms",
    ),
    (
        "allocs_per_op",
        "count",
        "allocator (fvn_bench::CountingAlloc), untraced ops",
        "every op_p50_ms and peak_rss_mb",
    ),
    (
        "alloc_bytes_per_op",
        "bytes",
        "allocator (fvn_bench::CountingAlloc), untraced ops",
        "every op_p50_ms and peak_rss_mb",
    ),
    (
        "traced_op_ms",
        "ms",
        "whole op with telemetry on (base of the layer shares)",
        "op_p50_ms",
    ),
    (
        "unattributed_ms",
        "ms",
        "traced op - sum of the measured layers",
        "op_p50_ms",
    ),
    (
        "telemetry.overhead_frac",
        "frac",
        "traced op_p50 / untraced op_p50 - 1, paired ops",
        "none (tracing cost)",
    ),
    (
        "env.sched_wait_ms_per_op",
        "ms",
        "run-queue wait of this thread (/proc/thread-self/schedstat)",
        "noise diagnostic",
    ),
    (
        "env.steal_ticks",
        "count",
        "host steal over the run (/proc/stat)",
        "noise diagnostic",
    ),
];

/// What one run was asked to do.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Config {
    /// Op inputs in a run: `rate` is the workload's op runs per second on
    /// the reference box, so a run takes about `--seconds` there.  Every
    /// input runs [`measure::REPEATS`] times per turn, and a traced run
    /// gives each input two turns.  The count is fixed by the arguments
    /// alone, never by the clock, so that every run with one seed replays
    /// the same ops.
    pub fn inputs(&self, rate: f64) -> usize {
        let runs = (self.seconds * rate).round() as usize / measure::REPEATS;
        (runs / if self.trace { 2 } else { 1 }).max(2)
    }
}

/// The turns of op input `i`: untraced only, or with `--trace 1` an
/// untraced and a traced turn in alternating order, so that the tracing
/// overhead is measured on paired inputs.
pub fn turns(trace: bool, i: usize) -> &'static [bool] {
    match (trace, i % 2) {
        (false, _) => &[false],
        (true, 0) => &[false, true],
        _ => &[true, false],
    }
}

/// A run's result: counts for the contract's JSON plus named metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the JSON.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The end-to-end metrics of an untraced run, from its ops' wall times
    /// in ms and its set-up time in s.  Times are scaled to the reference
    /// speed by the run's calibration; the measured figures and the noise
    /// diagnostics go into a note.
    pub fn set_end_to_end(&mut self, times: &[f64], setup: f64, host: &measure::Host) {
        let scale = host.to_reference();
        let total_s = times.iter().sum::<f64>() / 1e3;
        let p50 = measure::median(times);
        self.set("setup_s", setup * scale);
        self.set("ops_per_s", times.len() as f64 / (total_s * scale));
        self.set("op_p50_ms", p50 * scale);
        self.set("peak_rss_mb", measure::peak_rss_mb());
        self.notes.push(format!(
            "measured: setup_s {setup:.4}  op_p50_ms {p50:.4}  op_p90_ms {:.4} over {} ops",
            measure::quantile(times, 0.9),
            times.len()
        ));
        self.notes.push(format!(
            "host: calibration {:.4} ms (reference {} ms, scale {scale:.4})  \
             env.sched_wait_ms_per_op {:.4}  env.steal_ticks {}",
            host.calibration,
            measure::CALIBRATION_REF_MS,
            host.wait,
            host.steal
        ));
    }

    /// The per-layer metrics every traced run reports: each layer's per-op
    /// mean, the paired tracing overhead, and the noise diagnostics.
    pub fn set_layers(
        &mut self,
        layers: &BTreeMap<&'static str, Vec<f64>>,
        plain: &[f64],
        traced: &[f64],
        host: &measure::Host,
    ) {
        for (k, v) in layers {
            self.set(k, measure::mean(v));
        }
        let overhead = measure::median(traced) / measure::median(plain) - 1.0;
        self.set("telemetry.overhead_frac", overhead);
        self.set("env.sched_wait_ms_per_op", host.wait);
        self.set("env.steal_ticks", host.steal);
    }

    /// Record a failed op with its reason (printed, never fatal).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failed <= 5 {
            self.notes.push(format!("FAILED: {what}"));
        }
    }
}

/// The set-up every workload shares: the oracle database of its starting
/// topology, which checks its ops.  It is built once before the ops and
/// rebuilt `SETUP_REPS - 1` more times spread evenly over the measured
/// loop, outside the ops' timings, so that the median build time samples
/// the same host phases as the ops and the calibration: five builds in a
/// row at process start read up to 40% apart between runs.  A rebuild that
/// differs is a failed check.
pub struct Setup {
    edges: Vec<inputs::Edge>,
    pub reference: Database,
    times: Vec<f64>,
}

impl Setup {
    pub fn build(edges: &[inputs::Edge]) -> ndlog::Result<Self> {
        let (reference, secs) = inputs::oracle(edges)?;
        Ok(Setup {
            edges: edges.to_vec(),
            reference,
            times: vec![secs],
        })
    }

    /// Call before step `k` of a measured loop of `steps` steps: rebuilds
    /// at `SETUP_REPS - 1` evenly spaced steps.
    pub fn step(&mut self, k: usize, steps: usize, out: &mut Outcome) -> ndlog::Result<()> {
        let rebuilds = SETUP_REPS - 1;
        if (k * rebuilds) % steps >= rebuilds {
            return Ok(());
        }
        let (db, secs) = inputs::oracle(&self.edges)?;
        self.times.push(secs);
        if db != self.reference {
            out.fail("the oracle database differs between set-up builds".into());
        }
        Ok(())
    }

    /// Median time of one build, in seconds.
    pub fn seconds(&self) -> f64 {
        measure::median(&self.times)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <cold_build|churn_read|dist_converge> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let cfg = Config {
        seed,
        seconds,
        trace,
    };
    let result = match workload.as_str() {
        "cold_build" => cold_build::run(&cfg),
        "churn_read" => churn_read::run(&cfg),
        "dist_converge" => dist_converge::run(&cfg),
        _ => return usage(),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {workload} set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    report(&workload, &cfg, &out);
    ExitCode::SUCCESS
}

/// Print the human-readable table, then the contract's JSON line.
fn report(workload: &str, cfg: &Config, out: &Outcome) {
    println!(
        "perfbench {workload} seed={} seconds={} trace={}",
        cfg.seed, cfg.seconds, cfg.trace as u8
    );
    for n in &out.notes {
        println!("  {n}");
    }
    println!(
        "  failed_frac {} ({} of {} ops)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    let listed: Vec<(&str, &str)> = if cfg.trace {
        PER_LAYER.iter().map(|&(n, u, ..)| (n, u)).collect()
    } else {
        END_TO_END.to_vec()
    };
    let mut json = Vec::new();
    for (name, unit) in listed {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        // A metric without samples (a layer the workload does not load) reads 0.
        let value = if value.is_finite() { value } else { 0.0 };
        match PER_LAYER.iter().find(|l| l.0 == name).filter(|_| cfg.trace) {
            Some(&(_, _, layer, moves)) => {
                println!("  {name:<26} {value:>14.4} {unit:<6} {layer} -> {moves}")
            }
            None => println!("  {name:<26} {value:>14.4} {unit}"),
        }
        json.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        json.join(", ")
    );
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this program prints, with the same units.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = |name: &str, unit: &str| {
            json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\","))
        };
        for (name, unit) in END_TO_END {
            assert!(listed(name, unit), "end-to-end {name} ({unit}) not listed");
        }
        for (name, unit, ..) in PER_LAYER {
            assert!(listed(name, unit), "per-layer {name} ({unit}) not listed");
        }
        let entries = json.matches("{\"name\": ").count();
        assert_eq!(
            entries,
            3 + END_TO_END.len() + PER_LAYER.len(),
            "3 workloads + metrics"
        );
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(12.0), "12.0");
    }
}

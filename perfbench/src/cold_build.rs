//! `cold_build`: parse the path-vector program with its `link` facts and
//! build a session, from nothing, once per op.
//!
//! Loads the parser, the safety analysis, the native path operator and the
//! initial counting/aggregate strata; touches no maintenance, query or
//! runtime code.

use crate::inputs::{base_edges, program_text, Relabel, Rng, CHORDS_DENSE, PV_RELATIONS};
use crate::measure::{self, mean, ms_since, Env, REPEATS};
use crate::{turns, Config, Outcome, Setup};
use ndlog::algo::{recognize, AlgoOp, DijkstraPaths, NativeShape};
use ndlog::telemetry::Snapshot;
use ndlog::update::Session;
use ndlog::{Database, Result};
use std::collections::BTreeMap;
use std::time::Instant;

/// Builds per second on the reference box when the host is slow (about
/// 135 ms a build, plus its check and a calibration), so a run takes at
/// most about `--seconds`.
const RATE: f64 = 5.0;

/// What one build of an op leaves for the metrics once its session is
/// dropped.
struct Built {
    parse: f64,
    derivations: f64,
    changed: f64,
    /// Allocations and bytes allocated by parse and build.
    allocs: (u64, u64),
    /// With telemetry on: the session's metrics and the outside calls.
    traced: Option<(Snapshot, Outside)>,
}

pub fn run(cfg: &Config) -> Result<Outcome> {
    let base = base_edges(&CHORDS_DENSE);
    // Set-up: the oracle database of the canonical labelling; every op's
    // output, relabelled back, is checked against it.
    let mut out = Outcome::default();
    let mut setup = Setup::build(&base)?;
    let mut rng = Rng::new(cfg.seed);
    let inputs = cfg.inputs(RATE);
    let (mut plain, mut traced, mut derivations) = (vec![], vec![], vec![]);
    let mut layer: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    // Each op builds a fresh relabelling of the canonical topology.
    let ops: Vec<(Relabel, String)> = (0..inputs)
        .map(|_| {
            let relabel = Relabel::random(&mut rng);
            let text = program_text(&relabel.edges(&base));
            (relabel, text)
        })
        .collect();
    let per_input = turns(cfg.trace, 0).len();
    let mut runs = measure::Fastest::new(inputs * per_input);
    let mut env = Env::now();
    measure::reset_peak_rss();
    for pass in 0..REPEATS {
        for (i, (relabel, text)) in ops.iter().enumerate() {
            setup.step(pass * inputs + i, REPEATS * inputs, &mut out)?;
            env.calibrate();
            for (t, &traced_turn) in turns(cfg.trace, i).iter().enumerate() {
                let run = build(text, traced_turn, relabel, &setup.reference);
                runs.record(i * per_input + t, run);
            }
        }
    }
    for (k, run) in runs.into_runs().enumerate() {
        let i = k / per_input;
        out.attempted += 1;
        let (b, ms) = match run {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("op {i}: {e}"));
                continue;
            }
        };
        let mut push = |k: &'static str, v: f64| layer.entry(k).or_default().push(v);
        let Some((snap, outside)) = b.traced else {
            plain.push(ms);
            derivations.push(b.derivations);
            push("allocs_per_op", b.allocs.0 as f64);
            push("alloc_bytes_per_op", b.allocs.1 as f64);
            continue;
        };
        traced.push(ms);
        let none = Snapshot::default();
        push("traced_op_ms", ms);
        push("parse_ms", b.parse);
        push("analyze_ms", outside.analyze);
        push("algo.run_ms", outside.algo_run);
        let phases = measure::phases(&none, &snap, &mut push);
        push(
            "algo.install_ms",
            measure::phase_ms(&none, &snap, "algo") - outside.algo_run,
        );
        let tuples = measure::counter_sum(&snap, "ndlog_algo_output_tuples_total");
        push("algo.output_tuples", tuples as f64);
        push("unattributed_ms", ms - b.parse - outside.analyze - phases);
        push("derivations_per_op", b.derivations);
        push("tuples_changed_per_op", b.changed);
        push(
            "retraction_work",
            measure::histogram_sum(&snap, "ndlog_zset_retraction_work") as f64,
        );
        if outside.algo_tuples != tuples as usize {
            out.fail(format!(
                "op {i}: outside operator run disagrees with the build"
            ));
        }
    }
    let env = env.since(REPEATS * inputs * per_input);
    if cfg.trace {
        out.set_layers(&layer, &plain, &traced, &env);
    } else {
        out.set_end_to_end(&plain, setup.seconds(), &env);
        out.notes
            .push(format!("derivations_per_op {}", mean(&derivations)));
    }
    Ok(out)
}

/// One run of an op: parse, build, check the database against the oracle.
/// Returns what the metrics need and the parse + build time in ms.
fn build(
    text: &str,
    telemetry: bool,
    relabel: &Relabel,
    reference: &Database,
) -> std::result::Result<(Built, f64), String> {
    let (a0, b0) = fvn_bench::alloc_snapshot();
    let t0 = Instant::now();
    let prog = ndlog::parse_program(text).map_err(|e| e.to_string())?;
    let parse = ms_since(t0);
    let s = Session::open(&prog)
        .telemetry(telemetry)
        .build()
        .map_err(|e| e.to_string())?;
    let ms = ms_since(t0);
    let (a1, b1) = fvn_bench::alloc_snapshot();
    if relabel.restore(&s.database(), &PV_RELATIONS) != *reference {
        return Err("built database differs from the oracle".into());
    }
    let stats = s.init_stats();
    let built = Built {
        parse,
        derivations: stats.derivations as f64,
        changed: (stats.inserted + stats.deleted) as f64,
        allocs: (a1 - a0, b1 - b0),
        traced: telemetry.then(|| (s.metrics(), outside_calls(text, &s))),
    };
    Ok((built, ms))
}

/// Work the build does internally, repeated from outside on the same input
/// so it can be timed.
struct Outside {
    /// The safety analysis, ms.
    analyze: f64,
    /// The recognizer plus native path operator over the built store, ms.
    algo_run: f64,
    /// The operator's output tuples.
    algo_tuples: usize,
}

fn outside_calls(text: &str, s: &Session) -> Outside {
    let prog = ndlog::parse_program(text).expect("parsed once already");
    let t0 = Instant::now();
    let analysis = ndlog::analyze(&prog).expect("analyzed once already");
    let analyze = ms_since(t0);
    let storage = s.storage().expect("incremental backend");
    let t0 = Instant::now();
    let mut algo_tuples = 0;
    for shape in recognize(&analysis.rules, storage.symbols()) {
        if let NativeShape::PathVector(spec) = shape {
            algo_tuples += DijkstraPaths::new(spec).run(storage).map_or(0, |o| o.len());
        }
    }
    Outside {
        analyze,
        algo_run: ms_since(t0),
        algo_tuples,
    }
}

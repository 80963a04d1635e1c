//! `churn_read`: one long-lived session absorbs a seeded stream of mixed
//! link transactions, each followed by point reads of best paths.
//!
//! Loads z-set maintenance and the magic-set read path, with writes beside
//! reads; the native operator only sees the few links it owns.

use crate::inputs::{
    base_edges, churn_sequence, oracle, program_text, project, whole_periods, ChurnTxn, Rng,
    CHORDS_DENSE, PV_RELATIONS,
};
use crate::measure::{self, mean, median, ms_since, quantile, Env, REPEATS};
use crate::{turns, Config, Outcome, Setup};
use ndlog::telemetry::Snapshot;
use ndlog::update::Session;
use ndlog::{Database, Query, QueryStats, Result, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// Transaction runs (commit + reads + answer checks + a calibration) per
/// second on the reference box when the host is slow (about 430 ms each),
/// so a run takes at most about `--seconds`.
const RATE: f64 = 2.2;
/// Point reads after each commit.
const READS: usize = 4;
/// Full-database checks against an oracle per run.
const CHECKS: usize = 4;

/// What one run of an op on one session leaves for the metrics.
struct Op {
    commit: f64,
    reads: Vec<f64>,
    stats: Vec<QueryStats>,
    derivations: usize,
    changed: usize,
    /// Allocations and bytes allocated by the commit and the reads.
    allocs: (u64, u64),
    /// With telemetry on: the session's metrics before and after.
    snaps: Option<(Snapshot, Snapshot)>,
}

pub fn run(cfg: &Config) -> Result<Outcome> {
    let base = base_edges(&CHORDS_DENSE);
    let mut rng = Rng::new(cfg.seed);
    // An untraced run, which carries the bounded metrics, makes a whole
    // number of passes through the link decks, so that every such run fails
    // and re-costs the same links.
    let inputs = match cfg.trace {
        true => cfg.inputs(RATE).max(CHECKS),
        false => whole_periods(cfg.inputs(RATE), base.len()),
    };
    let (txns, states) = churn_sequence(&mut rng, &base, inputs, READS);
    // Full-database checks: CHECKS evenly spaced ops, the last one included.
    let checkpoints: Vec<usize> = (1..=CHECKS).map(|k| k * txns.len() / CHECKS - 1).collect();

    // Set-up: the oracle database of the starting topology (`setup_s`),
    // checked against the freshly built sessions; then one oracle database
    // per full-database check, over the topology the stream has reached
    // there.
    let mut out = Outcome::default();
    let mut setup = Setup::build(&base)?;
    let mut references = BTreeMap::new();
    for &at in &checkpoints {
        references.insert(at, oracle(&states[at])?.0);
    }
    // One session per pass and turn, all built alike: pass `j` replays the
    // whole transaction stream on session `j`.
    let prog = ndlog::parse_program(&program_text(&base))?;
    let open = |telemetry: bool| -> Result<Vec<Session>> {
        (0..REPEATS)
            .map(|_| Session::open(&prog).telemetry(telemetry).build())
            .collect()
    };
    let mut plain = open(false)?;
    let mut traced = if cfg.trace { open(true)? } else { vec![] };
    for s in plain.iter().chain(&traced) {
        if project(&s.database(), &PV_RELATIONS) != setup.reference {
            out.fail("the freshly built session differs from the oracle".into());
        }
    }

    let (mut plain_ops, mut traced_ops) = (vec![], vec![]);
    let (mut commits, mut reads, mut derivations) = (vec![], vec![], vec![]);
    let mut layer: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut queries: Vec<QueryStats> = Vec::new();
    let per_input = turns(cfg.trace, 0).len();
    let mut runs = measure::Fastest::new(txns.len() * per_input);
    let mut env = Env::now();
    measure::reset_peak_rss();
    for pass in 0..REPEATS {
        for (i, txn) in txns.iter().enumerate() {
            setup.step(pass * txns.len() + i, REPEATS * txns.len(), &mut out)?;
            env.calibrate();
            for (t, &traced_turn) in turns(cfg.trace, i).iter().enumerate() {
                let s = match traced_turn {
                    true => &mut traced[pass],
                    false => &mut plain[pass],
                };
                runs.record(i * per_input + t, op(i, s, txn, traced_turn, &references));
            }
        }
    }
    for run in runs.into_runs() {
        out.attempted += 1;
        let (t, ms) = match run {
            Ok(r) => r,
            Err(e) => {
                out.fail(e);
                continue;
            }
        };
        let mut push = |k: &'static str, v: f64| layer.entry(k).or_default().push(v);
        let Some((before, after)) = t.snaps else {
            plain_ops.push(ms);
            push("allocs_per_op", t.allocs.0 as f64);
            push("alloc_bytes_per_op", t.allocs.1 as f64);
            if !cfg.trace {
                commits.push(t.commit);
                reads.extend(t.reads);
                derivations.push(t.derivations as f64);
            }
            continue;
        };
        traced_ops.push(ms);
        let read_ms: f64 = t.reads.iter().sum();
        push("traced_op_ms", ms);
        let phases = measure::phases(&before, &after, &mut push);
        push("commit_other_ms", t.commit - phases);
        push("unattributed_ms", ms - phases - read_ms);
        push("derivations_per_op", t.derivations as f64);
        push("tuples_changed_per_op", t.changed as f64);
        push(
            "retraction_work",
            measure::histogram_delta(&before, &after, "ndlog_zset_retraction_work"),
        );
        push(
            "algo.output_tuples",
            measure::counter_delta(&before, &after, "ndlog_algo_output_tuples_total"),
        );
        commits.push(t.commit);
        reads.extend(t.reads);
        queries.extend(t.stats);
    }
    let env = env.since(REPEATS * txns.len() * per_input);
    if !cfg.trace {
        out.set_end_to_end(&plain_ops, setup.seconds(), &env);
        out.notes.push(format!(
            "commit_p50_ms {:.4}  commit_p90_ms {:.4}  query_p50_ms {:.4}  query_p90_ms {:.4}",
            median(&commits),
            quantile(&commits, 0.9),
            median(&reads),
            quantile(&reads, 0.9)
        ));
        out.notes
            .push(format!("derivations_per_op {}", mean(&derivations)));
        return Ok(out);
    }
    out.set_layers(&layer, &plain_ops, &traced_ops, &env);
    out.set("commit_p50_ms", median(&commits));
    out.set("commit_p90_ms", quantile(&commits, 0.9));
    out.set("query_p50_ms", median(&reads));
    out.set("query_p90_ms", quantile(&reads, 0.9));
    let per_query = |f: fn(&QueryStats) -> f64| mean(&queries.iter().map(f).collect::<Vec<_>>());
    out.set("query.derivations", per_query(|q| q.derivations as f64));
    out.set("query.demanded", per_query(|q| q.demanded as f64));
    out.set("query.answers", per_query(|q| q.answers as f64));
    out.set(
        "query.rewritten_frac",
        per_query(|q| q.rewritten as u8 as f64),
    );
    Ok(out)
}

/// One run of op `i` on one session: commit `txn`, then run its reads.
/// Checks every answer against the relation and, at a checkpoint, the
/// whole database against its oracle.  Returns the op's data and its
/// commit + reads time in ms.
fn op(
    i: usize,
    s: &mut Session,
    txn: &ChurnTxn,
    telemetry: bool,
    references: &BTreeMap<usize, Database>,
) -> std::result::Result<(Op, f64), String> {
    let before = telemetry.then(|| s.metrics());
    let (a, b, c) = txn.down;
    let (m0, m1, old, new) = txn.metric;
    let (a0, b0) = fvn_bench::alloc_snapshot();
    let t0 = Instant::now();
    let mut t = s.txn().link_down(a, b, c).metric_change(m0, m1, old, new);
    if let Some((a, b, c)) = txn.up {
        t = t.link_up(a, b, c);
    }
    let committed = t.commit();
    let commit = ms_since(t0);
    let outcome = committed.map_err(|e| format!("op {i}: commit: {e}"))?;
    let mut reads = Vec::with_capacity(txn.reads.len());
    let mut answers = Vec::with_capacity(txn.reads.len());
    for &(src, dst) in &txn.reads {
        let q = Query::on("bestPath")
            .bind(Value::Addr(src))
            .bind(Value::Addr(dst))
            .free()
            .free();
        let t0 = Instant::now();
        let r = s.query(&q);
        reads.push(ms_since(t0));
        answers.push((q, r.map_err(|e| format!("op {i}: query: {e}"))?));
    }
    let (a1, b1) = fvn_bench::alloc_snapshot();
    let snaps = before.map(|b| (b, s.metrics()));
    let best = s.relation("bestPath");
    let mut stats = Vec::with_capacity(answers.len());
    for (q, r) in answers {
        let want: Vec<_> = best.iter().filter(|t| q.matches(t)).cloned().collect();
        if r.tuples != want {
            return Err(format!(
                "op {i}: {q} answered {:?}, relation has {want:?}",
                r.tuples
            ));
        }
        stats.push(r.stats);
    }
    if let Some(want) = references.get(&i) {
        if project(&s.database(), &PV_RELATIONS) != *want {
            return Err(format!(
                "op {i}: session differs from the oracle over the current topology"
            ));
        }
    }
    let ms = commit + reads.iter().sum::<f64>();
    let done = Op {
        commit,
        reads,
        stats,
        derivations: outcome.stats.derivations,
        changed: outcome.changes.len(),
        allocs: (a1 - a0, b1 - b0),
        snaps,
    };
    Ok((done, ms))
}

//! `dist_converge`: one simulated network per op, opened, churned and run
//! to quiescence under message loss and jitter.
//!
//! The only workload that loads the runtime's link layer, its reliability
//! layer and the simulator's dispatch; the native operator is off in
//! distributed mode.

use crate::inputs::{
    base_edges, flap_schedule, topology, whole_periods, Deck, Edge, Relabel, Rng, CHORDS_SPARSE,
    PV_RELATIONS,
};
use crate::measure::{self, median, ms_since, Env, REPEATS};
use crate::{turns, Config, Outcome, Setup};
use ndlog::telemetry::{Snapshot, Telemetry};
use ndlog::update::{Session, SessionBuilder};
use ndlog::{Database, Result};
use ndlog_runtime::DistRuntime;
use netsim::{LinkSchedule, SimConfig, SimStats, Topology};
use std::collections::BTreeMap;
use std::time::Instant;

/// Episode runs per second on the reference box when the host is slow
/// (about 350 ms each with its check and a calibration), so a run takes at
/// most about `--seconds`.
const RATE: f64 = 2.2;

/// One episode's input.
struct Episode {
    relabel: Relabel,
    topo: Topology,
    builder: SessionBuilder,
    schedule: Vec<LinkSchedule>,
    sim: SimConfig,
}

fn next_episode(rng: &mut Rng, deck: &mut Deck, base: &[Edge]) -> Episode {
    let relabel = Relabel::random(rng);
    let edges = relabel.edges(base);
    let prog = ndlog::programs::path_vector_on(&edges);
    let schedule = flap_schedule(rng, deck, &edges);
    let sim = SimConfig {
        loss: 0.1,
        jitter: 2,
        seed: rng.next_u64(),
        ..SimConfig::default()
    };
    Episode {
        relabel,
        topo: topology(&edges),
        builder: Session::open(&prog),
        schedule,
        sim,
    }
}

pub fn run(cfg: &Config) -> Result<Outcome> {
    let base = base_edges(&CHORDS_SPARSE);
    // Set-up: the centralized oracle database over the topology every
    // episode ends on (schedules heal).
    let mut out = Outcome::default();
    let mut setup = Setup::build(&base)?;
    let mut rng = Rng::new(cfg.seed);
    let mut deck = Deck::default();
    // An untraced run, which carries the bounded metrics, deals a whole
    // number of passes through the link deck (five of its links an
    // episode), so that every such run churns each link equally often.
    let inputs = match cfg.trace {
        true => cfg.inputs(RATE),
        false => whole_periods(cfg.inputs(RATE), base.len()),
    };
    let (mut plain, mut traced, mut ticks, mut msgs) = (vec![], vec![], vec![], vec![]);
    let mut layer: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let episodes: Vec<Episode> = (0..inputs)
        .map(|_| next_episode(&mut rng, &mut deck, &base))
        .collect();
    let per_input = turns(cfg.trace, 0).len();
    let mut runs = measure::Fastest::new(inputs * per_input);
    let mut env = Env::now();
    measure::reset_peak_rss();
    for pass in 0..REPEATS {
        for (i, e) in episodes.iter().enumerate() {
            setup.step(pass * inputs + i, REPEATS * inputs, &mut out)?;
            env.calibrate();
            for (t, &traced_turn) in turns(cfg.trace, i).iter().enumerate() {
                let run = episode(e, traced_turn, &setup.reference);
                runs.record(i * per_input + t, run);
            }
        }
    }
    for (k, run) in runs.into_runs().enumerate() {
        let i = k / per_input;
        out.attempted += 1;
        let (ep, ms) = match run {
            Ok(r) => r,
            Err(err) => {
                out.fail(format!("episode {i}: {err}"));
                continue;
            }
        };
        let mut push = |k: &'static str, v: f64| layer.entry(k).or_default().push(v);
        let Some((before, snap)) = ep.snaps else {
            plain.push(ms);
            ticks.push(ep.stats.last_change as f64);
            msgs.push(ep.stats.messages as f64);
            push("allocs_per_op", ep.allocs.0 as f64);
            push("alloc_bytes_per_op", ep.allocs.1 as f64);
            continue;
        };
        traced.push(ms);
        // Node engine phases inside the run, between the snapshots.
        let engine = measure::phases(&before, &snap, &mut push);
        push("traced_op_ms", ms);
        push("runtime.open_ms", ep.open);
        push("runtime.run_ms", ep.run);
        push("runtime.engine_ms", engine);
        push("runtime.other_ms", ep.run - engine);
        push("unattributed_ms", ms - ep.open - engine);
        let counter = |name: &str| measure::counter_sum(&snap, name) as f64;
        push(
            "runtime.retransmits",
            counter("runtime_node_retransmits_total"),
        );
        push(
            "runtime.dup_suppressed",
            counter("runtime_node_dup_suppressed_total"),
        );
        push("runtime.reships", counter("runtime_node_reships_total"));
        push(
            "runtime.delivery_frac",
            counter("runtime_node_received_total") / counter("runtime_node_sent_total"),
        );
        push("derivations_per_op", ep.derivations);
        push("tuples_changed_per_op", ep.changed);
        push(
            "retraction_work",
            measure::histogram_sum(&snap, "ndlog_zset_retraction_work") as f64,
        );
        push("converge_ticks", ep.stats.last_change as f64);
        push("msgs_per_converge", ep.stats.messages as f64);
        push("netsim.events", ep.stats.events as f64);
        push("netsim.dropped", ep.stats.dropped as f64);
        push("netsim.end_time", ep.stats.end_time as f64);
    }
    let env = env.since(REPEATS * inputs * per_input);
    if cfg.trace {
        out.set_layers(&layer, &plain, &traced, &env);
        // The protocol metrics are medians per episode, like the untraced
        // run's.
        for k in ["converge_ticks", "msgs_per_converge"] {
            out.set(k, median(&layer[k]));
        }
    } else {
        out.set_end_to_end(&plain, setup.seconds(), &env);
        out.notes.push(format!(
            "converge_ticks {}  msgs_per_converge {}",
            median(&ticks),
            median(&msgs)
        ));
    }
    Ok(out)
}

/// What one run of an episode leaves for the metrics.
struct Ran {
    stats: SimStats,
    /// `DistRuntime::open` with scheduling, and `run`, in ms.
    open: f64,
    run: f64,
    derivations: f64,
    changed: f64,
    /// Allocations and bytes allocated by open and run.
    allocs: (u64, u64),
    /// With telemetry on: the runtime's metrics between open and run (taken
    /// outside both timings), and after the run.
    snaps: Option<(Snapshot, Snapshot)>,
}

/// One run of an episode: open, schedule and run it to quiescence in a
/// fresh telemetry registry, then check it.  Returns what the metrics need
/// and the open + run time in ms.
fn episode(
    e: &Episode,
    telemetry: bool,
    reference: &Database,
) -> std::result::Result<(Ran, f64), String> {
    let registry = Telemetry::with_enabled(telemetry);
    let builder = e.builder.clone().with_telemetry(&registry);
    let (a0, b0) = fvn_bench::alloc_snapshot();
    let t0 = Instant::now();
    let mut rt = DistRuntime::open(&builder, &e.topo, e.sim).map_err(|err| err.to_string())?;
    rt.schedule_links(&e.schedule);
    let open = ms_since(t0);
    let before = telemetry.then(|| rt.metrics());
    let t1 = Instant::now();
    let stats = rt.run();
    let run = ms_since(t1);
    let (a1, b1) = fvn_bench::alloc_snapshot();
    if !stats.quiescent {
        return Err(format!("did not quiesce: {stats:?}"));
    }
    if LinkSchedule::final_topology(&e.schedule, &e.topo).edge_list() != e.topo.edge_list() {
        return Err("schedule does not heal".into());
    }
    if e.relabel.restore(&rt.global_database(), &PV_RELATIONS) != *reference {
        return Err("global database differs from the centralized oracle".into());
    }
    let m = rt.maintenance_stats();
    let ran = Ran {
        stats,
        open,
        run,
        derivations: m.derivations as f64,
        changed: (m.inserted + m.deleted) as f64,
        allocs: (a1 - a0, b1 - b0),
        snaps: before.map(|b| (b, rt.metrics())),
    };
    Ok((ran, open + run))
}

//! Statistics, process diagnostics and telemetry arithmetic.

use ndlog::telemetry::{MetricData, Snapshot};
use std::sync::mpsc;
use std::time::Instant;

/// Passes a run makes over its op sequence.  An op's time is its fastest
/// pass: all passes of one op do identical work, and they lie seconds
/// apart, so a slow host phase shorter than a pass costs no op its time.
pub const REPEATS: usize = 2;

/// The fastest run of each op over [`REPEATS`] passes, or the first error
/// any run of it gave.
pub struct Fastest<T> {
    runs: Vec<Option<std::result::Result<(T, f64), String>>>,
}

impl<T> Fastest<T> {
    pub fn new(ops: usize) -> Self {
        Fastest {
            runs: (0..ops).map(|_| None).collect(),
        }
    }

    /// Record one run of op `k`: its result and its time in ms.
    pub fn record(&mut self, k: usize, run: std::result::Result<(T, f64), String>) {
        let slot = &mut self.runs[k];
        match (slot.as_ref(), &run) {
            (Some(Err(_)), _) => {}
            (Some(Ok((_, best))), Ok((_, ms))) if best <= ms => {}
            _ => *slot = Some(run),
        }
    }

    /// Every op's fastest run, in op order.
    pub fn into_runs(self) -> impl Iterator<Item = std::result::Result<(T, f64), String>> {
        self.runs
            .into_iter()
            .map(|r| r.unwrap_or_else(|| Err("never ran".into())))
    }
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// The `q`-quantile (`0 <= q <= 1`) of `xs` by linear interpolation
/// between order statistics; `NaN` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Scheduler and host counters read around a measured loop, so that a
/// noisy run can be traced to run-queue waiting (this thread was runnable
/// but not running) or to the hypervisor (steal) instead of being guessed,
/// plus the host speed calibration taken during the loop.
pub struct Env {
    sched_wait_ns: u64,
    steal_ticks: u64,
    calibration: Vec<f64>,
    calibrator: Calibrator,
}

/// What [`Env`] saw over a measured loop.
pub struct Host {
    /// Run-queue wait of this thread, ms per op.
    pub wait: f64,
    /// Host steal ticks.
    pub steal: f64,
    /// Median time of one calibration, ms.
    pub calibration: f64,
}

impl Host {
    /// Factor that turns a time measured in this run into a time at the
    /// reference speed: [`CALIBRATION_REF_MS`] / the run's calibration.
    pub fn to_reference(&self) -> f64 {
        CALIBRATION_REF_MS / self.calibration
    }
}

/// Time of one calibration on the reference box (2 vCPUs on a shared host)
/// at its fast speed level.  Any constant would do: it only sets which
/// host speed the reported times are expressed at.
pub const CALIBRATION_REF_MS: f64 = 16.0;

impl Env {
    pub fn now() -> Self {
        Env {
            sched_wait_ns: sched_wait_ns(),
            steal_ticks: steal_ticks(),
            calibration: Vec::new(),
            calibrator: Calibrator::start(),
        }
    }

    /// Take one calibration; the measured loop calls this once per op
    /// input, between ops.
    pub fn calibrate(&mut self) {
        self.calibration.push(self.calibrator.time());
    }

    /// What the host did since `self`, over `ops` ops.
    pub fn since(&self, ops: usize) -> Host {
        let wait = sched_wait_ns().saturating_sub(self.sched_wait_ns) as f64 / 1e6;
        Host {
            wait: wait / ops.max(1) as f64,
            steal: steal_ticks().saturating_sub(self.steal_ticks) as f64,
            calibration: median(&self.calibration),
        }
    }
}

/// Times a fixed workload that runs no code of the engine: 100,000 seeded
/// inserts into a `BTreeMap`, the pointer-chasing, allocating kind of work
/// the engine's stores do.  The reference box switches, for seconds to
/// minutes at a time, between speed levels up to 1.7x apart, and this
/// workload slows down with the engine's ops: over seven back-to-back short
/// `cold_build` runs the measured p50 ranged over 79-116 ms while its ratio
/// to the calibration stayed within 4.1-5.2.  It follows the host only in
/// part: over one slow phase of several minutes the measured p50 rose by a
/// third and the calibration by a sixth.  Allocation-free workloads
/// (open-addressing hash inserts, a pointer chase, an arena search tree)
/// followed the host less closely, and 400,000 inserts only slightly
/// better at seven times the cost.
///
/// The calibration runs on a thread of its own while the measuring thread
/// waits, so that its allocations come from a malloc arena of their own: on
/// the measuring thread, the engine's fragmented heap slowed the same
/// inserts by half in `churn_read`, and a change to the engine's heap use
/// would have moved every scaled time.  The thread moves to the CPU the
/// measuring thread was last on before each calibration, because the two
/// vCPUs change speed separately: calibrated on whichever CPU the scheduler
/// picked, the ratio spread wider than the raw times.
struct Calibrator {
    ask: Option<mpsc::Sender<i32>>,
    answer: mpsc::Receiver<f64>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Calibrator {
    fn start() -> Self {
        let (ask, asked) = mpsc::channel::<i32>();
        let (tell, answer) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            let mut x = 0u64;
            for cpu in asked {
                pin_to(cpu);
                let mut map = std::collections::BTreeMap::new();
                let t0 = Instant::now();
                for i in 0..100_000u64 {
                    x = x
                        .wrapping_mul(0x5851_F42D_4C95_7F2D)
                        .wrapping_add(0x1405_7B7E_F767_814F);
                    map.insert(x >> 16, i);
                }
                std::hint::black_box(&map);
                let ms = ms_since(t0);
                drop(map);
                if tell.send(ms).is_err() {
                    break;
                }
            }
        });
        Calibrator {
            ask: Some(ask),
            answer,
            thread: Some(thread),
        }
    }

    /// One calibration's time in ms.
    fn time(&self) -> f64 {
        let ask = self.ask.as_ref().expect("running until dropped");
        // SAFETY: `sched_getcpu` takes no arguments and only reads.
        let cpu = unsafe { sched_getcpu() };
        ask.send(cpu).expect("calibration thread running");
        self.answer.recv().expect("calibration thread running")
    }
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread to `cpu` (nothing happens for a CPU number
/// out of range or where the kernel refuses).
fn pin_to(cpu: i32) {
    let mut mask = [0u64; 16];
    if let Ok(cpu) = usize::try_from(cpu) {
        if cpu < 64 * mask.len() {
            mask[cpu / 64] |= 1 << (cpu % 64);
            // SAFETY: `mask` is a valid cpu_set_t of `size_of_val(&mask)`
            // bytes that outlives the call; pid 0 is the calling thread.
            unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        }
    }
}

impl Drop for Calibrator {
    /// Stop the thread and wait until it has ended.
    fn drop(&mut self) {
        self.ask.take();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Second field of `/proc/thread-self/schedstat`: nanoseconds this thread
/// spent runnable on a run queue (0 where unavailable).
fn sched_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// The `steal` column of the aggregate `cpu` line of `/proc/stat`
/// (0 where unavailable).
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Reset the peak resident set size to the current one (`5` to
/// `/proc/self/clear_refs`), so that [`peak_rss_mb`] covers the measured
/// loop and not the reference builds before it.  Where the kernel refuses,
/// the peak keeps covering the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Sum of every counter of the family `name` (the bare name and each
/// labelled series `name{...}`).
pub fn counter_sum(s: &Snapshot, name: &str) -> u64 {
    family(s, name)
        .map(|d| match d {
            MetricData::Counter(v) => *v,
            _ => 0,
        })
        .sum()
}

/// Sum of the recorded samples of the histogram family `name`.
pub fn histogram_sum(s: &Snapshot, name: &str) -> u64 {
    family(s, name)
        .map(|d| match d {
            MetricData::Histogram(h) => h.sum,
            _ => 0,
        })
        .sum()
}

fn family<'a>(s: &'a Snapshot, name: &'a str) -> impl Iterator<Item = &'a MetricData> {
    s.entries().iter().filter_map(move |(n, d)| {
        let rest = n.strip_prefix(name)?;
        (rest.is_empty() || rest.starts_with('{')).then_some(d)
    })
}

/// Engine phase time between two snapshots, in ms per phase name
/// (`ndlog_phase_<name>_ns`).
pub fn phase_ms(before: &Snapshot, after: &Snapshot, phase: &str) -> f64 {
    let name = format!("ndlog_phase_{phase}_ns");
    histogram_sum(after, &name).saturating_sub(histogram_sum(before, &name)) as f64 / 1e6
}

/// The engine phases every workload reports, by layer metric name.
const PHASES: [(&str, &str); 5] = [
    ("algo.phase_ms", "algo"),
    ("counting_ms", "counting"),
    ("aggregates_ms", "aggregates"),
    ("zset_propagate_ms", "zset_propagate"),
    ("zset_verify_ms", "zset_verify"),
];

/// Push each engine phase's time between two snapshots under its layer
/// name; returns their sum in ms.
pub fn phases(before: &Snapshot, after: &Snapshot, mut push: impl FnMut(&'static str, f64)) -> f64 {
    let mut total = 0.0;
    for (name, phase) in PHASES {
        let v = phase_ms(before, after, phase);
        total += v;
        push(name, v);
    }
    total
}

/// Counter-family growth between two snapshots.
pub fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    counter_sum(after, name).saturating_sub(counter_sum(before, name)) as f64
}

/// Histogram-family sample-sum growth between two snapshots.
pub fn histogram_delta(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    histogram_sum(after, name).saturating_sub(histogram_sum(before, name)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.9) - 3.7).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }
}

//! The six workloads' common shape and the single-run harness that the
//! `BENCHMARK.json` command drives: set up several times, measure for the
//! requested seconds, check every output, report the named metrics.

use std::time::Instant;

use crate::host::{self, Reference, Spinners};
use crate::span::SpanLog;
use crate::stats::{median, percentile, reportable_tail, sorted};
use crate::{live, probes, serve, train};

/// Every workload, in the order the suite runs them.
pub const WORKLOADS: [Kind; 6] = [
    Kind::TrainFull,
    Kind::TrainMinibatch,
    Kind::ServeScore,
    Kind::ServeTopk,
    Kind::ServeSharded,
    Kind::ServeLive,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    TrainFull,
    TrainMinibatch,
    ServeScore,
    ServeTopk,
    ServeSharded,
    ServeLive,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::TrainFull => "train_full",
            Kind::TrainMinibatch => "train_minibatch",
            Kind::ServeScore => "serve_score",
            Kind::ServeTopk => "serve_topk",
            Kind::ServeSharded => "serve_sharded",
            Kind::ServeLive => "serve_live",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        WORKLOADS.into_iter().find(|k| k.name() == name)
    }

    /// What `op_us` times and what `bench.work_per_s` counts here.
    pub fn operation(self) -> (&'static str, &'static str) {
        match self {
            Kind::TrainFull => ("one full-batch train_epoch", "train pairs"),
            Kind::TrainMinibatch => ("one planned mini-batch epoch", "train pairs"),
            Kind::ServeScore => ("POST /score, 8 pairs", "requests"),
            Kind::ServeTopk => ("GET /topk?k=10", "requests"),
            Kind::ServeSharded => ("GET /topk?k=10 through the front", "requests"),
            Kind::ServeLive => ("POST /events, 4 events", "events applied"),
        }
    }

    /// Whether the operation's time is divided by the host's slowness:
    /// yes where it is dense tensor code on one thread (an epoch, a head
    /// refresh), which slows with the reference kernel. The reads do not:
    /// `/score` waits out the 2 ms batch linger, a timer, and `/topk`
    /// streams the index, which the host's slow spells lengthen by 7 %
    /// where the reference kernel loses 27 %.
    pub fn host_scaled(self) -> bool {
        matches!(
            self,
            Kind::TrainFull | Kind::TrainMinibatch | Kind::ServeLive
        )
    }

    /// Which percentile of a block's samples stands for the block. The
    /// median, where the samples are CPU time. The lower quartile, where
    /// they are client-side latency: a request that met a stolen time
    /// slice waited for the hypervisor, not for the program, and on a
    /// busy host that can be every second request but hardly three of
    /// four. On a quiet host the two are 3 to 7 % apart.
    pub fn block_percentile(self) -> f64 {
        if self.keeps_cpus_awake() {
            25.0
        } else {
            50.0
        }
    }

    /// Whether idle-priority spinners keep the guest's CPUs from halting
    /// while this workload is measured: the read paths hand each request
    /// across threads, and on a busy host every wake-up of a halted CPU
    /// waits for the hypervisor.
    pub fn keeps_cpus_awake(self) -> bool {
        matches!(
            self,
            Kind::ServeScore | Kind::ServeTopk | Kind::ServeSharded
        )
    }

    fn setup(self, opts: &Opts) -> Ready {
        match self {
            Kind::TrainFull | Kind::TrainMinibatch => train::setup(self, opts),
            Kind::ServeScore | Kind::ServeTopk | Kind::ServeSharded => serve::setup(self, opts),
            Kind::ServeLive => live::setup(opts),
        }
    }
}

/// Options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes and counts: exercises the plumbing, measures nothing.
    pub quick: bool,
    /// Corrupts one expected value, to show that the oracles bite.
    pub corrupt: bool,
}

/// What one `measure` call observed.
#[derive(Debug, Default)]
pub struct Timed {
    /// What each completed operation took, µs: CPU time or client-side
    /// latency, as the workload defines its operation.
    pub samples_us: Vec<f64>,
    /// Work units completed (see [`Kind::operation`]).
    pub work: f64,
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl Timed {
    /// Adds another measurement's samples and counts.
    pub fn absorb(&mut self, other: Timed) {
        self.samples_us.extend(other.samples_us);
        self.work += other.work;
        self.wall_s += other.wall_s;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A workload that has finished setting up.
pub trait Workload {
    /// Runs the closed loop for `seconds`, recording spans when `log` is
    /// enabled. May be called several times; state carries over.
    fn measure(&mut self, seconds: f64, log: &mut SpanLog) -> Timed;
    /// Oracle failures over everything measured so far; also stitches
    /// server-side traces into `log` and prints workload diagnostics.
    fn verify(&mut self, log: &mut SpanLog) -> Vec<String>;
}

/// A finished set-up.
pub struct Ready {
    pub workload: Box<dyn Workload>,
    /// CPU seconds, all threads, from the start of set-up to ready for
    /// the first timed operation, excluding oracle preparation.
    pub setup_s: f64,
    /// Hash of what set-up produced; equal seeds must give equal values.
    pub fingerprint: u64,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub fingerprint: u64,
    pub errors: Vec<String>,
}

/// Most set-ups one run performs.
const MAX_SETUPS: usize = 9;

/// Longest stretch measured between two readings of the host's speed.
const BLOCK_SECONDS: f64 = 0.5;

/// The measured blocks of one kind (untraced or traced).
#[derive(Default)]
struct Blocks {
    /// Each block's typical operation time ([`Kind::block_percentile`])
    /// over that block's slowness.
    typical: Vec<f64>,
    slowness: Vec<f64>,
    /// Every sample over its block's slowness.
    samples_us: Vec<f64>,
    work: f64,
    wall_s: f64,
    attempted: u64,
    failed: u64,
}

impl Blocks {
    fn push(&mut self, timed: Timed, slowness: f64, pct: f64) {
        if let Some(typical) = percentile(&sorted(timed.samples_us.clone()), pct) {
            self.typical.push(typical / slowness);
            self.slowness.push(slowness);
        }
        self.samples_us
            .extend(timed.samples_us.iter().map(|s| s / slowness));
        self.work += timed.work;
        self.wall_s += timed.wall_s;
        self.attempted += timed.attempted;
        self.failed += timed.failed;
    }
}

/// Runs one workload once, as the `BENCHMARK.json` command does.
pub fn run_one(kind: Kind, opts: &Opts) -> Outcome {
    // A 2-thread pool on 2 vCPUs measures the hypervisor, not the code
    // (see README, host findings); every run is pinned to one.
    ahntp_par::set_threads(1);
    host::keep_freed_memory();
    // Server start/stop lines would bury the diagnostics on stderr.
    ahntp_telemetry::set_log_filter("warn");
    let mut errors = Vec::new();

    // Set up several times and report the median: one set-up is too short
    // and too cold to repeat. Short set-ups repeat more often, up to about
    // two seconds' worth. The last one is measured.
    let mut reference = Reference::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut ready: Option<Ready> = None;
    let mut before = reference.slowness();
    loop {
        let previous = ready.take().map(|r| r.fingerprint);
        let next = kind.setup(opts);
        let after = reference.slowness();
        if previous.is_some_and(|p| p != next.fingerprint) {
            errors.push(format!(
                "set-up is not deterministic: fingerprint {:016x} then {:016x}",
                previous.unwrap_or_default(),
                next.fingerprint
            ));
        }
        setups.push(next.setup_s / ((before + after) / 2.0));
        before = after;
        ready = Some(next);
        let enough = if opts.quick { 2 } else { 3 };
        let spent: f64 = setups.iter().sum();
        if setups.len() >= MAX_SETUPS || (setups.len() >= enough && (opts.quick || spent >= 2.0)) {
            break;
        }
    }
    let Ready {
        mut workload,
        fingerprint,
        ..
    } = ready.expect("at least one set-up");

    // Measure in short blocks with the reference kernel timed between
    // them: the host changes speed every few seconds (README, host
    // findings), so each block is scaled by the slowness around it and
    // the run reports the median block, not the median sample.
    let awake = kind.keeps_cpus_awake().then(Spinners::start);
    // A traced run spends the other half of its time on the probes.
    let budget_s = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let block_s = (budget_s / 4.0).min(BLOCK_SECONDS);
    let mut log = SpanLog::new(opts.trace, 0);
    let mut off = SpanLog::new(false, 0);
    let (mut plain, mut traced) = (Blocks::default(), Blocks::default());
    let started = Instant::now();
    let mut before = reference.slowness();
    for block in 0.. {
        // Alternate untraced and traced blocks so host drift hits both.
        let tracing = opts.trace && block % 2 == 1;
        let timed = workload.measure(block_s, if tracing { &mut log } else { &mut off });
        let after = reference.slowness();
        let slowness = if kind.host_scaled() {
            (before + after) / 2.0
        } else {
            1.0
        };
        before = after;
        // A workload with a fixed amount of work says so by doing none.
        let finished = timed.attempted == 0;
        if !finished {
            if tracing { &mut traced } else { &mut plain }.push(
                timed,
                slowness,
                kind.block_percentile(),
            );
        }
        let both = !opts.trace || block >= 1;
        if finished || (both && started.elapsed().as_secs_f64() >= budget_s) {
            break;
        }
    }
    drop(awake);
    errors.extend(workload.verify(&mut log));
    drop(workload);

    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    if attempted == 0 {
        errors.push("no operation completed inside the measuring window".to_string());
    }
    let op_us = median(&plain.typical).unwrap_or(f64::NAN);
    let unscaled: Vec<f64> = plain
        .typical
        .iter()
        .zip(&plain.slowness)
        .map(|(t, s)| t * s)
        .collect();
    eprintln!(
        "# {} blocks, unscaled op {:.1} us, host slowness min/median/max {:.3}/{:.3}/{:.3}, {:.1} {}/s of wall",
        plain.typical.len() + traced.typical.len(),
        median(&unscaled).unwrap_or(f64::NAN),
        plain.slowness.iter().copied().fold(f64::INFINITY, f64::min),
        median(&plain.slowness).unwrap_or(f64::NAN),
        plain.slowness.iter().copied().fold(0.0, f64::max),
        plain.work / plain.wall_s,
        kind.operation().1,
    );
    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics = if opts.trace {
        let traced_op_us = median(&traced.typical).unwrap_or(f64::NAN);
        let samples = sorted(plain.samples_us);
        let (tail_pct, tail_us) = reportable_tail(&samples).unwrap_or((f64::NAN, f64::NAN));
        let mut metrics = vec![
            metric(
                "bench.trace_overhead_pct",
                (traced_op_us - op_us) / op_us * 100.0,
                "%",
            ),
            metric("bench.op_tail_us", tail_us, "us"),
            metric("bench.op_tail_pct", tail_pct, "count"),
            metric("bench.work_per_s", plain.work / plain.wall_s, "1/s"),
        ];
        write_trace(kind, &log);
        let started = Instant::now();
        metrics.extend(probes::run(opts));
        eprintln!("# probes took {:.2} s", started.elapsed().as_secs_f64());
        metrics
    } else {
        vec![
            metric("op_us", op_us, "us"),
            metric("setup_s", median(&setups).unwrap_or(f64::NAN), "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        ]
    };
    for m in &metrics {
        if !m.value.is_finite() {
            errors.push(format!("metric {} is not a number", m.name));
        }
    }
    Outcome {
        correct: errors.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        fingerprint,
        errors,
    }
}

/// Where build products go: the directory cargo was told to use.
pub fn output_dir() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::PathBuf::from(target).join("perf")
}

fn write_trace(kind: Kind, log: &SpanLog) {
    let dir = output_dir();
    let path = dir.join(format!("trace-{}.json", kind.name()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, log.to_chrome_trace().to_line()));
    match written {
        Ok(()) => eprintln!("# {} spans written to {}", log.spans.len(), path.display()),
        Err(e) => eprintln!("# could not write {}: {e}", path.display()),
    }
    eprintln!("# span self times (name: count, total self ms):");
    for (name, (count, self_us)) in log.self_times() {
        eprintln!("#   {name}: {count}, {:.3}", self_us as f64 / 1e3);
    }
}

/// High-water resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// FNV-1a over a byte stream; the fingerprints' hash.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_block_is_its_named_percentile_over_its_slowness() {
        let timed = || Timed {
            samples_us: vec![40.0, 10.0, 30.0, 20.0],
            work: 4.0,
            wall_s: 0.5,
            attempted: 5,
            failed: 1,
        };
        let mut blocks = Blocks::default();
        blocks.push(timed(), 2.0, 50.0);
        blocks.push(timed(), 1.0, 25.0);
        assert_eq!(blocks.typical, [10.0, 10.0]);
        assert_eq!(blocks.slowness, [2.0, 1.0]);
        assert_eq!(blocks.samples_us[..4], [20.0, 5.0, 15.0, 10.0]);
        assert_eq!((blocks.attempted, blocks.failed), (10, 2));
        assert_eq!((blocks.work, blocks.wall_s), (8.0, 1.0));
        // Only the wall-latency workloads take the lower quartile, and
        // only the tensor workloads are scaled.
        for kind in WORKLOADS {
            assert_eq!(
                kind.block_percentile() == 25.0,
                kind.keeps_cpus_awake(),
                "{}",
                kind.name()
            );
            assert!(!(kind.host_scaled() && kind.keeps_cpus_awake()));
        }
    }
}

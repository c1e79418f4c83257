//! The measuring loop shared by every workload: repeated set-up, then
//! whole passes of the workload's op list until the run's time is up.

use crate::trace::Tracer;
use crate::workloads::{CorpusRoundtrip, ServiceChurn, Size, StreamLive};
use msp_analysis::obs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["stream_live", "service_churn", "corpus_roundtrip"];

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// Untraced passes an untraced run makes however short its time.
pub const MIN_PASSES: usize = 3;

/// Passes of each kind (untraced, traced) a traced run makes at least.
pub const MIN_TRACED_PASSES: usize = 2;

/// One workload: a fixed op list replayed in passes from fresh state.
pub trait Workload {
    /// Fresh per-pass state (sessions, a service, a directory).
    type State;

    fn ops_per_pass(&self) -> usize;

    /// The group (session) op `i` belongs to, for per-session metrics.
    fn group(&self, _i: usize) -> usize {
        0
    }

    /// Opens fresh state under the run's work directory `dir`.
    fn open(&mut self, dir: &Path) -> Result<Self::State, String>;

    /// Runs and checks op `i`; returns the model steps it completed.
    fn op(&mut self, state: &mut Self::State, i: usize, tr: &mut Tracer) -> Result<u64, String>;

    /// Ends a pass: runs the end-of-pass result oracle and returns
    /// pass-level values for the per-layer metrics.
    fn close(&mut self, state: Self::State) -> Result<Vec<(&'static str, f64)>, String>;
}

/// Counter totals and histogram `(count, sum)` pairs of the metrics
/// registry; subtracting two readings gives what happened in between.
pub struct ObsReading {
    counters: Vec<(&'static str, u64)>,
    hists: Vec<(&'static str, u64, u64)>,
}

impl ObsReading {
    pub fn read() -> Self {
        let snap = obs::snapshot();
        ObsReading {
            counters: snap.counters,
            hists: snap
                .hists
                .iter()
                .map(|h| (h.name, h.count, h.sum))
                .collect(),
        }
    }

    pub fn since(&self, before: &ObsReading) -> ObsReading {
        ObsReading {
            counters: self
                .counters
                .iter()
                .zip(&before.counters)
                .map(|(&(n, a), &(_, b))| (n, a - b))
                .collect(),
            hists: self
                .hists
                .iter()
                .zip(&before.hists)
                .map(|(&(n, c, s), &(_, c0, s0))| (n, c - c0, s - s0))
                .collect(),
        }
    }

    pub fn counter(&self, c: obs::Counter) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == c.name())
            .map_or(0, |&(_, v)| v)
    }

    /// `(count, sum)` of a histogram.
    pub fn hist(&self, h: obs::Hist) -> (u64, u64) {
        self.hists
            .iter()
            .find(|(n, _, _)| *n == h.name())
            .map_or((0, 0), |&(_, c, s)| (c, s))
    }
}

pub struct OpRecord {
    pub pass: usize,
    pub group: usize,
    pub traced: bool,
    pub secs: f64,
    pub steps: u64,
    /// Metrics-registry activity during the op (traced ops only).
    pub obs: Option<ObsReading>,
}

pub struct PassRecord {
    pub traced: bool,
    pub steps: u64,
    /// Summed op time of the pass; opening and closing are not timed.
    pub secs: f64,
    pub values: Vec<(&'static str, f64)>,
}

pub struct RunRecord {
    pub ops_per_pass: usize,
    pub setup_secs: Vec<f64>,
    pub ops: Vec<OpRecord>,
    pub passes: Vec<PassRecord>,
    pub tracer: Tracer,
    pub attempted: u64,
    /// One message per failed op.
    pub errors: Vec<String>,
}

impl RunRecord {
    fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.errors.push(e);
        }
    }
}

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Work directory for journals and corpora.
    pub dir: PathBuf,
}

/// Runs the named workload under `cfg`.
pub fn run(cfg: &Config) -> Result<RunRecord, String> {
    let (seed, size) = (cfg.seed, cfg.size);
    match cfg.workload.as_str() {
        "stream_live" => measure(cfg, |tr| StreamLive::prepare(seed, size, tr)),
        "service_churn" => measure(cfg, |_| ServiceChurn::prepare(seed, size)),
        "corpus_roundtrip" => measure(cfg, |_| Ok(CorpusRoundtrip::prepare(seed, size))),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn measure<W: Workload>(
    cfg: &Config,
    mut prepare: impl FnMut(&mut Tracer) -> Result<W, String>,
) -> Result<RunRecord, String> {
    let mut record = RunRecord {
        ops_per_pass: 0,
        setup_secs: Vec::new(),
        ops: Vec::new(),
        passes: Vec::new(),
        tracer: Tracer::new(),
        attempted: 0,
        errors: Vec::new(),
    };

    // Set-up: generate inputs, open fresh state, run one untimed warm-up
    // op. Repeated so `setup_s` is a median; the last inputs are kept.
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        record.tracer.set_enabled(cfg.trace);
        let mut w = prepare(&mut record.tracer)?;
        record.tracer.set_enabled(false);
        let mut state = w.open(&cfg.dir)?;
        let warm_up = w.op(&mut state, 0, &mut record.tracer).map(|_| ());
        record.setup_secs.push(start.elapsed().as_secs_f64());
        record.check(warm_up);
        let closed = w.close(state).map(|_| ());
        record.check(closed);
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up");
    record.ops_per_pass = w.ops_per_pass();

    let start = Instant::now();
    for pass in 0.. {
        let done = |traced: bool| record.passes.iter().filter(|p| p.traced == traced).count();
        let enough = if cfg.trace {
            done(false) >= MIN_TRACED_PASSES && done(true) >= MIN_TRACED_PASSES
        } else {
            done(false) >= MIN_PASSES
        };
        if enough && start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
        // A traced run alternates untraced and traced passes, so the
        // tracing overhead is measured against interleaved neighbours.
        let traced = cfg.trace && pass % 2 == 1;
        if traced {
            obs::enable();
        }
        let mut state = w.open(&cfg.dir)?;
        let (mut steps, mut secs) = (0, 0.0);
        record.tracer.set_enabled(traced);
        for i in 0..record.ops_per_pass {
            let id = record.ops.len();
            record.tracer.set_op(Some(id));
            let before = traced.then(ObsReading::read);
            let span = record.tracer.begin("op", 0);
            let t = Instant::now();
            let result = w.op(&mut state, i, &mut record.tracer);
            let dt = t.elapsed().as_secs_f64();
            record.tracer.end(span);
            let obs = before.map(|b| ObsReading::read().since(&b));
            let op_steps = *result.as_ref().unwrap_or(&0);
            record.check(result.map(|_| ()));
            steps += op_steps;
            secs += dt;
            record.ops.push(OpRecord {
                pass,
                group: w.group(i),
                traced,
                secs: dt,
                steps: op_steps,
                obs,
            });
        }
        record.tracer.set_enabled(false);
        record.tracer.set_op(None);
        let closed = w.close(state);
        obs::disable();
        let values = closed.as_ref().cloned().unwrap_or_default();
        record.check(closed.map(|_| ()));
        record.passes.push(PassRecord {
            traced,
            steps,
            secs,
            values,
        });
    }
    Ok(record)
}

//! The three workloads. Each is a closed loop with one caller: an op
//! returns before the next is issued. A pass replays the same op list
//! from fresh state, so every pass of a run does the same work.

use crate::harness::Workload;
use crate::trace::Tracer;
use msp_analysis::stats::Summary;
use msp_core::cost::ServingOrder;
use msp_core::model::{Step, StreamParams};
use msp_core::mtc::MoveToCenter;
use msp_core::simulator::{StreamCheckpoint, StreamingSim};
use msp_geometry::sample::SeededSampler;
use msp_offline::probe::{ProbeOptions, RatioProbe};
use msp_scenarios::corpus::{record_registry_corpus, scan_corpus, sweep_corpus};
use msp_scenarios::registry::{lookup_or_err, registry, ScenarioKnobs, ScenarioSpec};
use msp_scenarios::service::{ServiceConfig, SessionService, ADVANCE_BLOCK};
use std::path::{Path, PathBuf};

/// Full size for measuring; tiny size for the benchmark's self-tests.
#[derive(Clone, Copy)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

fn full_or_tiny<T>(size: Size, full: T, tiny: T) -> T {
    match size {
        Size::Full => full,
        Size::Tiny => tiny,
    }
}

/// `a` and `b` hold bit-identical state.
fn same_bits<const N: usize>(a: &StreamCheckpoint<N>, b: &StreamCheckpoint<N>) -> bool {
    a.step == b.step
        && a.movement.to_bits() == b.movement.to_bits()
        && a.service.to_bits() == b.service.to_bits()
        && a.max_step_used.to_bits() == b.max_step_used.to_bits()
        && (0..N).all(|i| a.position[i].to_bits() == b.position[i].to_bits())
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Deletes `dir` and waits until the filesystem has committed the
/// deletion, so its disk work does not spill into the next pass or run.
fn remove_settled(dir: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(dir).map_err(err)?;
    let parent = dir.parent().ok_or("work directory has no parent")?;
    std::fs::File::open(parent)
        .and_then(|f| f.sync_all())
        .map_err(err)
}

// ---------------------------------------------------------------------
// stream_live
// ---------------------------------------------------------------------

/// Live ratio telemetry on edge-drift sessions: every step feeds the
/// certified lower-bound probe and the streaming simulator.
pub struct StreamLive {
    sessions: Vec<(StreamParams<2>, Vec<Step<2>>)>,
    block: usize,
}

pub struct LiveSession {
    probe: RatioProbe<2>,
    sim: StreamingSim<2, MoveToCenter<2>>,
    bound: f64,
}

impl StreamLive {
    pub fn prepare(seed: u64, size: Size, tr: &mut Tracer) -> Result<Self, String> {
        // Eight sessions average out how much one session's geometry
        // costs the probe; 1024 steps keep a pass near two seconds.
        let (count, horizon) = full_or_tiny(size, (8, 1024), (2, 256));
        let spec = lookup_or_err("edge-drift").map_err(err)?;
        let sessions = (0..count)
            .map(|k| {
                tr.time("gen.stream", horizon as u64, || {
                    let knobs = ScenarioKnobs::horizon(horizon);
                    let mut stream = spec
                        .stream_with::<2>(SeededSampler::derive_seed(seed, k), &knobs)
                        .map_err(err)?;
                    let steps = std::iter::from_fn(|| stream.next_step()).collect();
                    Ok((stream.params(), steps))
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(StreamLive {
            sessions,
            block: 64,
        })
    }

    fn blocks_per_session(&self) -> usize {
        self.sessions[0].1.len() / self.block
    }

    fn new_sim(params: &StreamParams<2>) -> StreamingSim<2, MoveToCenter<2>> {
        StreamingSim::new(params, MoveToCenter::new(), 0.0, ServingOrder::MoveFirst)
    }
}

impl Workload for StreamLive {
    type State = Vec<LiveSession>;

    fn ops_per_pass(&self) -> usize {
        self.sessions.len() * self.blocks_per_session()
    }

    fn group(&self, i: usize) -> usize {
        i / self.blocks_per_session()
    }

    fn open(&mut self, _: &Path) -> Result<Vec<LiveSession>, String> {
        Ok(self
            .sessions
            .iter()
            .map(|(params, _)| LiveSession {
                probe: RatioProbe::new(params, ServingOrder::MoveFirst, ProbeOptions::default()),
                sim: Self::new_sim(params),
                bound: 0.0,
            })
            .collect())
    }

    fn op(
        &mut self,
        state: &mut Vec<LiveSession>,
        i: usize,
        tr: &mut Tracer,
    ) -> Result<u64, String> {
        let (k, b) = (self.group(i), i % self.blocks_per_session());
        let session = &mut state[k];
        let grid_block = ProbeOptions::default().grid_block;
        for (j, step) in self.sessions[k].1[b * self.block..(b + 1) * self.block]
            .iter()
            .enumerate()
        {
            // The observe call that fills a grid window also solves it.
            let observed = b * self.block + j + 1;
            let name = if observed.is_multiple_of(grid_block) {
                "probe.window"
            } else {
                "probe.observe"
            };
            tr.time(name, 1, || session.probe.observe_step(&step.requests));
            tr.time("sim.feed", 1, || session.sim.feed(step));
        }
        let bound = session.probe.lower_bound();
        let cost = session.sim.total_cost();
        if bound < session.bound || bound > cost * (1.0 + 1e-9) {
            return Err(format!(
                "session {k} block {b}: bound {bound} after {} against cost {cost}",
                session.bound
            ));
        }
        session.bound = bound;
        Ok(self.block as u64)
    }

    /// The probe is read-only: each probed session must end bit-equal to
    /// an unprobed replay of the same steps.
    fn close(&mut self, state: Vec<LiveSession>) -> Result<Vec<(&'static str, f64)>, String> {
        for (k, (live, (params, steps))) in state.iter().zip(&self.sessions).enumerate() {
            let mut plain = Self::new_sim(params);
            for step in &steps[..live.sim.steps()] {
                plain.feed(step);
            }
            if !same_bits(&live.sim.checkpoint(), &plain.checkpoint()) {
                return Err(format!(
                    "session {k}: probed run differs from unprobed replay"
                ));
            }
        }
        Ok(Vec::new())
    }
}

// ---------------------------------------------------------------------
// service_churn
// ---------------------------------------------------------------------

const SERVICE_FAMILIES: [&str; 4] = ["edge-drift", "walk-plane", "car-fleet", "district-clusters"];

/// Steps every service session may run; far beyond any pass.
const SESSION_HORIZON: usize = 1 << 30;

/// The durable multi-tenant host: a fleet of sessions under a resident
/// cap, journaled to disk, advanced in supervised batches.
pub struct ServiceChurn {
    specs: Vec<(ScenarioSpec, u64)>,
    names: Vec<String>,
    ticks: Vec<Tick>,
    resident: usize,
}

/// One tick: the indices of the sessions it advances and the batch
/// request naming them.
struct Tick {
    sessions: Vec<usize>,
    requests: Vec<(String, usize)>,
}

pub struct ServiceState {
    service: SessionService<2, MoveToCenter<2>>,
    dir: PathBuf,
    /// Steps each session has advanced so far.
    advanced: Vec<usize>,
}

impl ServiceChurn {
    pub fn prepare(seed: u64, size: Size) -> Result<Self, String> {
        let (fleet, resident, per_tick, ticks) =
            full_or_tiny(size, (256, 16, 16, 100), (48, 8, 8, 20));
        // Sixteen watchdog blocks per advance: enough model work per
        // eviction that the journal's fsyncs stay a small part of a tick.
        let steps_per_advance = 16 * ADVANCE_BLOCK;
        let specs = (0..fleet)
            .map(|i| {
                let spec = lookup_or_err(SERVICE_FAMILIES[i % SERVICE_FAMILIES.len()]);
                Ok((
                    spec.map_err(err)?,
                    SeededSampler::derive_seed(seed, i as u64),
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let names: Vec<String> = (0..fleet).map(|i| format!("s{i:04}")).collect();
        // 80% of each tick's sessions come from the hot fifth of the fleet.
        let hot = fleet.div_ceil(5);
        let mut rng = SeededSampler::new(SeededSampler::derive_seed(seed, u64::MAX));
        let ticks = (0..ticks)
            .map(|_| {
                let mut picked: Vec<usize> = Vec::with_capacity(per_tick);
                while picked.len() < per_tick {
                    let i = if rng.uniform(0.0, 1.0) < 0.8 {
                        rng.int_inclusive(0, hot - 1)
                    } else {
                        rng.int_inclusive(hot, fleet - 1)
                    };
                    if !picked.contains(&i) {
                        picked.push(i);
                    }
                }
                let requests = picked
                    .iter()
                    .map(|&i| (names[i].clone(), steps_per_advance))
                    .collect();
                Tick {
                    sessions: picked,
                    requests,
                }
            })
            .collect();
        Ok(ServiceChurn {
            specs,
            names,
            ticks,
            resident,
        })
    }

    fn stream(&self, i: usize) -> Result<Box<dyn msp_scenarios::RequestStream<2> + Send>, String> {
        let (spec, seed) = &self.specs[i];
        spec.stream_with::<2>(*seed, &ScenarioKnobs::horizon(SESSION_HORIZON))
            .map_err(err)
    }
}

impl Workload for ServiceChurn {
    type State = ServiceState;

    fn ops_per_pass(&self) -> usize {
        self.ticks.len()
    }

    fn open(&mut self, dir: &Path) -> Result<ServiceState, String> {
        let dir = dir.join("journals");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(err)?;
        let config = ServiceConfig::new(self.resident).with_journal_dir(&dir);
        let mut service = SessionService::new(config);
        for (i, name) in self.names.iter().enumerate() {
            let delta = self.specs[i].0.default_delta;
            service
                .open_session(
                    name.clone(),
                    self.stream(i)?,
                    MoveToCenter::new(),
                    delta,
                    ServingOrder::MoveFirst,
                )
                .map_err(err)?;
        }
        if service.degraded() {
            return Err("journal directory unusable: service degraded to memory".into());
        }
        Ok(ServiceState {
            service,
            dir,
            advanced: vec![0; self.names.len()],
        })
    }

    fn op(&mut self, state: &mut ServiceState, i: usize, tr: &mut Tracer) -> Result<u64, String> {
        let Tick { sessions, requests } = &self.ticks[i];
        let steps: usize = requests.iter().map(|(_, n)| n).sum();
        let results = tr.time("service.tick", steps as u64, || {
            state.service.advance_batch(requests)
        });
        for (&session, result) in sessions.iter().zip(results) {
            let progress = result.map_err(|e| format!("tick {i}: {e}"))?;
            state.advanced[session] += progress.advanced;
        }
        if state.service.degraded() {
            return Err(format!("tick {i}: service degraded to memory"));
        }
        Ok(steps as u64)
    }

    /// Sampled sessions must end bit-equal to an always-resident replay.
    fn close(&mut self, state: ServiceState) -> Result<Vec<(&'static str, f64)>, String> {
        let fleet = self.names.len();
        for i in (0..8).map(|k| k * (fleet - 1) / 7) {
            let (spec, _) = &self.specs[i];
            let mut stream = self.stream(i)?;
            let params = stream.params();
            let mut sim = StreamingSim::new(
                &params,
                MoveToCenter::new(),
                spec.default_delta,
                ServingOrder::MoveFirst,
            );
            for _ in 0..state.advanced[i] {
                let step = stream.next_step().ok_or("session stream ended early")?;
                sim.feed(&step);
            }
            let got = state.service.checkpoint(&self.names[i]).map_err(err)?;
            if !same_bits(&got, &sim.checkpoint()) {
                return Err(format!(
                    "session {}: differs from a resident replay",
                    self.names[i]
                ));
            }
        }
        let bytes: u64 = std::fs::read_dir(&state.dir)
            .map_err(err)?
            .filter_map(|e| e.ok()?.metadata().ok())
            .map(|m| m.len())
            .sum();
        drop(state.service);
        remove_settled(&state.dir)?;
        Ok(vec![(
            "journal.bytes_per_session",
            bytes as f64 / fleet as f64,
        )])
    }
}

// ---------------------------------------------------------------------
// corpus_roundtrip
// ---------------------------------------------------------------------

/// The regression corpus: record every registry scenario as block-v3
/// traces, scan them, and sweep them against the manifest.
pub struct CorpusRoundtrip {
    seeds: Vec<u64>,
    horizon: Option<usize>,
    bytes_per_step: Vec<f64>,
}

impl CorpusRoundtrip {
    pub fn prepare(seed: u64, size: Size) -> Self {
        let (ops, horizon) = full_or_tiny(size, (40, None), (2, Some(64)));
        CorpusRoundtrip {
            seeds: (0..ops)
                .map(|j| SeededSampler::derive_seed(seed, j))
                .collect(),
            horizon,
            bytes_per_step: Vec::new(),
        }
    }
}

impl Workload for CorpusRoundtrip {
    type State = PathBuf;

    fn ops_per_pass(&self) -> usize {
        self.seeds.len()
    }

    fn open(&mut self, dir: &Path) -> Result<PathBuf, String> {
        let dir = dir.join("corpora");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(err)?;
        self.bytes_per_step.clear();
        Ok(dir)
    }

    fn op(&mut self, dir: &mut PathBuf, i: usize, tr: &mut Tracer) -> Result<u64, String> {
        let dir = dir.join(format!("op{i}"));
        let seed = self.seeds[i];
        let horizon = self.horizon;
        let entries = tr
            .time("corpus.record", 0, || {
                record_registry_corpus(&dir, seed, horizon)
            })
            .map_err(err)?;
        let steps: usize = entries.iter().map(|e| e.steps).sum();
        let scan = tr
            .time("corpus.scan", steps as u64, || scan_corpus(&dir, 0))
            .map_err(err)?;
        let sweep = tr
            .time("corpus.sweep", steps as u64, || sweep_corpus(&dir, 0))
            .map_err(err)?;
        let scanned: Vec<(&str, usize)> = scan.iter().map(|s| (s.name.as_str(), s.steps)).collect();
        let recorded: Vec<(&str, usize)> =
            entries.iter().map(|e| (e.name.as_str(), e.steps)).collect();
        if entries.len() != registry().len() || scanned != recorded {
            return Err(format!("op {i}: scan does not match the manifest"));
        }
        if sweep.len() != entries.len() {
            return Err(format!(
                "op {i}: sweep covered {} of {} traces",
                sweep.len(),
                entries.len()
            ));
        }
        if let Some(bad) = sweep.iter().find(|o| !o.is_clean()) {
            return Err(format!(
                "op {i}: {} replay mismatch: {:?}",
                bad.name, bad.mismatch
            ));
        }
        let bytes: u64 = scan.iter().map(|s| s.bytes).sum();
        self.bytes_per_step.push(bytes as f64 / steps as f64);
        Ok(steps as u64)
    }

    fn close(&mut self, dir: PathBuf) -> Result<Vec<(&'static str, f64)>, String> {
        remove_settled(&dir)?;
        let bytes_per_step = Summary::quantile(&self.bytes_per_step, 0.5);
        Ok(vec![("trace.bytes_per_step", bytes_per_step)])
    }
}

//! The scenario registry: one named, parameterized catalog for every
//! workload the workspace knows how to run.
//!
//! Benches, examples, and tests used to build their instances with
//! bespoke setup code; the registry replaces that with
//! `lookup("edge-drift").stream::<2>(seed)` — the same catalog entry,
//! the same knobs, everywhere. Every entry yields a replayable
//! [`RequestStream`], so any scenario can be recorded to a trace,
//! replayed, diffed across runs, or fed to the streaming simulator.
//!
//! Families covered: the five synthetic workload families of
//! `msp-workloads` (random walk, drifting hotspot, agent fleet, cluster
//! mixture, moving-client walks), the deterministic showcase workloads
//! (regime shift, ring districts), the adversarial lower-bound
//! constructions of Theorems 1, 2 (line and rotating) and 3, and a
//! trace-replay scenario that exercises the block v3 trace format
//! end to end.

use crate::stream::{GeneratedStream, InstanceStream, RequestStream};
use crate::trace::{read_trace, record_to_vec, TraceError, TraceFormat};
use msp_adversary::{
    build_thm1, build_thm2, build_thm2_rotating, build_thm3, Thm1Params, Thm2Params, Thm3Params,
};
use msp_core::cost::ServingOrder;
use msp_core::fleet::{run_fleet, MtcFleet};
use msp_core::model::{Instance, Step, StreamParams};
use msp_core::moving_client::MovingClientInstance;
use msp_geometry::sample::SeededSampler;
use msp_geometry::Point;
use msp_workloads::agents::{random_waypoint_walk, runaway_walk};
use msp_workloads::{
    AgentFleet, AgentFleetConfig, ClusterMixture, ClusterMixtureConfig, DriftingHotspot,
    DriftingHotspotConfig, RandomWalk, RandomWalkConfig, RequestCount, StepSource,
};

/// Errors from scenario construction.
#[derive(Debug)]
pub enum ScenarioError {
    /// No registry entry with the requested name.
    UnknownScenario(String),
    /// The scenario's natural dimension differs from the requested `N`.
    DimensionMismatch {
        /// Scenario name.
        scenario: &'static str,
        /// The scenario's dimension.
        expected: usize,
        /// The compile-time dimension the caller requested.
        requested: usize,
    },
    /// A Moving-Client accessor was invoked on a family that has no
    /// moving client.
    NotMovingClient {
        /// Scenario name.
        scenario: &'static str,
    },
    /// Trace encoding/decoding failed while building a replay scenario.
    Trace(TraceError),
}

/// Typed registry failure — every lookup/parsing path in this module
/// returns `Result<_, RegistryError>` instead of panicking; examples that
/// want the old crash-on-typo behavior use [`must_lookup`].
pub type RegistryError = ScenarioError;

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::UnknownScenario(name) => write!(f, "unknown scenario {name:?}"),
            ScenarioError::DimensionMismatch {
                scenario,
                expected,
                requested,
            } => write!(
                f,
                "scenario {scenario:?} is {expected}-dimensional, caller requested {requested}"
            ),
            ScenarioError::NotMovingClient { scenario } => {
                write!(f, "scenario {scenario:?} has no moving client")
            }
            ScenarioError::Trace(e) => write!(f, "replay scenario failed: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<TraceError> for ScenarioError {
    fn from(e: TraceError) -> Self {
        ScenarioError::Trace(e)
    }
}

/// Optional overrides applied when opening a scenario stream.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScenarioKnobs {
    /// Number of steps to emit. Generator-backed scenarios honor any
    /// value (they are unbounded sources); instance-backed scenarios are
    /// truncated to the prefix, never extended.
    pub horizon: Option<usize>,
    /// For the adversarial families: the augmentation factor δ the
    /// construction targets. Ignored by the synthetic workloads, whose
    /// difficulty knobs are part of the spec.
    pub delta: Option<f64>,
}

impl ScenarioKnobs {
    /// Knobs overriding only the horizon.
    pub fn horizon(horizon: usize) -> Self {
        ScenarioKnobs {
            horizon: Some(horizon),
            ..Default::default()
        }
    }

    /// Knobs overriding only the adversarial δ.
    pub fn delta(delta: f64) -> Self {
        ScenarioKnobs {
            delta: Some(delta),
            ..Default::default()
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Family {
    WalkLine,
    WalkPlane,
    EdgeDrift,
    CarFleet,
    DistrictClusters,
    DisasterWaypoint,
    DisasterRunaway,
    RegimeShiftLine,
    RingDistricts,
    AdvThm1,
    AdvThm2,
    AdvThm2Rotating,
    AdvThm3,
    ReplayEdgeDrift,
    FleetChase,
}

/// A named, parameterized scenario: the catalog entry benches, examples,
/// and tests build their workloads from.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioSpec {
    /// Registry name (stable identifier; appears in reports and traces).
    pub name: &'static str,
    /// One-line description for catalogs and docs.
    pub summary: &'static str,
    /// Natural dimension of the scenario (`stream::<N>` requires `N` to
    /// match).
    pub dim: usize,
    /// Steps emitted when no horizon knob is given.
    pub default_horizon: usize,
    /// The augmentation factor δ the scenario is typically run with (for
    /// adversarial families, the δ the construction is built against).
    pub default_delta: f64,
    family: Family,
}

impl ScenarioSpec {
    /// Opens the scenario as a replayable stream with default knobs.
    pub fn stream<const N: usize>(
        &self,
        seed: u64,
    ) -> Result<Box<dyn RequestStream<N> + Send>, ScenarioError> {
        self.stream_with(seed, &ScenarioKnobs::default())
    }

    /// Opens the scenario as a replayable stream with explicit knobs.
    pub fn stream_with<const N: usize>(
        &self,
        seed: u64,
        knobs: &ScenarioKnobs,
    ) -> Result<Box<dyn RequestStream<N> + Send>, ScenarioError> {
        if N != self.dim {
            return Err(ScenarioError::DimensionMismatch {
                scenario: self.name,
                expected: self.dim,
                requested: N,
            });
        }
        let horizon = knobs.horizon.unwrap_or(self.default_horizon);
        let delta = knobs.delta.unwrap_or(self.default_delta);
        Ok(match self.family {
            Family::WalkLine => {
                let config = RandomWalkConfig::<N> {
                    horizon,
                    d: 2.0,
                    max_move: 1.0,
                    walk_speed: 1.2,
                    turn_probability: 0.1,
                    spread: 0.0,
                    count: RequestCount::Fixed(1),
                };
                generated(config.d, config.max_move, horizon, seed, move |s| {
                    RandomWalk::new(config).stream(s)
                })
            }
            Family::WalkPlane => {
                let config = RandomWalkConfig::<N> {
                    horizon,
                    d: 2.0,
                    max_move: 1.0,
                    walk_speed: 0.8,
                    turn_probability: 0.2,
                    spread: 0.3,
                    count: RequestCount::Fixed(2),
                };
                generated(config.d, config.max_move, horizon, seed, move |s| {
                    RandomWalk::new(config).stream(s)
                })
            }
            Family::EdgeDrift => {
                let config = DriftingHotspotConfig::<N> {
                    horizon,
                    d: 4.0,
                    max_move: 1.0,
                    drift_speed: 0.7,
                    momentum: 0.85,
                    spread: 0.6,
                    arena_half_width: 60.0,
                    count: RequestCount::Uniform { lo: 1, hi: 4 },
                };
                generated(config.d, config.max_move, horizon, seed, move |s| {
                    DriftingHotspot::new(config).stream(s)
                })
            }
            Family::CarFleet => {
                let config = AgentFleetConfig::<N> {
                    horizon,
                    d: 8.0,
                    max_move: 1.0,
                    agents: 12,
                    agent_speed: 0.6,
                    arena_half_width: 25.0,
                    request_probability: 0.4,
                };
                generated(config.d, config.max_move, horizon, seed, move |s| {
                    AgentFleet::new(config).stream(s)
                })
            }
            Family::DistrictClusters => {
                let config = ClusterMixtureConfig::<N> {
                    horizon,
                    d: 4.0,
                    max_move: 1.0,
                    sites: 4,
                    arena_half_width: 30.0,
                    spread: 0.8,
                    switch_probability: 0.01,
                    count: RequestCount::Fixed(3),
                };
                generated(config.d, config.max_move, horizon, seed, move |s| {
                    ClusterMixture::new(config).stream(s)
                })
            }
            Family::DisasterWaypoint | Family::DisasterRunaway => {
                let mc =
                    self.moving_client::<N>(seed, knobs)
                        .ok_or(ScenarioError::NotMovingClient {
                            scenario: self.name,
                        })?;
                Box::new(InstanceStream::new(mc.to_instance()))
            }
            Family::RegimeShiftLine => {
                Box::new(InstanceStream::new(regime_shift_instance::<N>(horizon)))
            }
            Family::RingDistricts => {
                let spread = 0.5;
                let request_probability = 0.8;
                generated(2.0, 1.0, horizon, seed, move |s| {
                    RingDistrictsSource::<N>::new(4, 15.0, spread, request_probability, s)
                })
            }
            Family::AdvThm1 => {
                let params = Thm1Params {
                    horizon,
                    d: 10.0,
                    m: 1.0,
                    x: None,
                };
                instance_backed(build_thm1::<N>(&params, seed).instance, knobs.horizon)
            }
            Family::AdvThm2 => {
                let params = thm2_params(delta);
                instance_backed(build_thm2::<N>(&params, seed).instance, knobs.horizon)
            }
            Family::AdvThm2Rotating => {
                let params = thm2_params(delta);
                instance_backed(
                    build_thm2_rotating::<N>(&params, seed).instance,
                    knobs.horizon,
                )
            }
            Family::AdvThm3 => {
                let params = Thm3Params {
                    r: 4,
                    d: 4.0,
                    m: 1.0,
                    cycles: horizon.div_ceil(2).max(1),
                };
                instance_backed(build_thm3::<N>(&params, seed).instance, knobs.horizon)
            }
            Family::ReplayEdgeDrift => {
                // Record the drift scenario as a block v3 trace and replay
                // the decoded steps — the registry's own record/replay loop.
                let mut inner = lookup_or_err("edge-drift")?.stream_with::<N>(
                    seed,
                    &ScenarioKnobs {
                        delta: None,
                        ..*knobs
                    },
                )?;
                let bytes = record_to_vec(inner.as_mut(), TraceFormat::DURABLE)?;
                Box::new(InstanceStream::new(read_trace::<N>(&bytes)?))
            }
            Family::FleetChase => Box::new(InstanceStream::new(fleet_chase_instance::<N>(
                horizon, seed,
            ))),
        })
    }

    /// For the Moving-Client scenarios, the full variant instance (agent
    /// walk + server speed), from which both the lowered base-model
    /// stream and agent-gap diagnostics derive. `None` for every other
    /// family.
    pub fn moving_client<const N: usize>(
        &self,
        seed: u64,
        knobs: &ScenarioKnobs,
    ) -> Option<MovingClientInstance<N>> {
        let horizon = knobs.horizon.unwrap_or(self.default_horizon);
        match self.family {
            Family::DisasterWaypoint => Some(MovingClientInstance::new(
                2.0,
                1.0,
                random_waypoint_walk::<N>(horizon, 1.0, 30.0, seed),
            )),
            Family::DisasterRunaway => Some(MovingClientInstance::new(
                2.0,
                1.0,
                runaway_walk::<N>(horizon, 1.5, seed),
            )),
            _ => None,
        }
    }
}

fn thm2_params(delta: f64) -> Thm2Params {
    Thm2Params {
        delta,
        r_min: 1,
        r_max: 1,
        d: 1.0,
        m: 1.0,
        x: None,
        cycles: 3,
    }
}

fn generated<const N: usize, S, F>(
    d: f64,
    m: f64,
    horizon: usize,
    seed: u64,
    build: F,
) -> Box<dyn RequestStream<N> + Send>
where
    S: StepSource<N> + Send + 'static,
    F: Fn(u64) -> S + Send + 'static,
{
    Box::new(GeneratedStream::new(
        build,
        seed,
        StreamParams::new(d, m, Point::origin()),
        Some(horizon),
    ))
}

fn instance_backed<const N: usize>(
    instance: Instance<N>,
    horizon: Option<usize>,
) -> Box<dyn RequestStream<N> + Send> {
    let instance = match horizon {
        Some(h) if h < instance.horizon() => instance.prefix(h),
        _ => instance,
    };
    Box::new(InstanceStream::new(instance))
}

/// The k-server handoff workload (ROADMAP's fleet direction): a 3-server
/// [`MtcFleet`] is driven over ring-district demand, and the *trail it
/// actually drove* — the fleet's post-move server positions, one request
/// per server per step — becomes this scenario's demand. A single mobile
/// server then chases three speed-limited, coordinating servers, which
/// produces sustained multi-site tension no single-generator family has.
/// Deterministic in `(horizon, seed)`, so replay and record/diff hold.
fn fleet_chase_instance<const N: usize>(horizon: usize, seed: u64) -> Instance<N> {
    let mut source = RingDistrictsSource::<N>::new(3, 12.0, 0.4, 0.9, seed);
    let demand: Vec<Step<N>> = (0..horizon).map(|_| source.next_step()).collect();
    let demand = Instance::new(2.0, 1.0, Point::origin(), demand);
    let mut fleet = MtcFleet::<N>::new();
    let run = run_fleet(&demand, 3, &mut fleet, 0.25, ServingOrder::MoveFirst);
    let steps = (1..=horizon)
        .map(|t| Step::new(run.trajectories.iter().map(|traj| traj[t]).collect()))
        .collect();
    Instance::new(2.0, 1.0, Point::origin(), steps)
}

/// The diagnostics three-act workload: demand parked at the origin, a
/// regime jump to x = 40, then a runaway phase at speed 1.2. Deterministic
/// (the seed is ignored); acts scale with the horizon.
fn regime_shift_instance<const N: usize>(horizon: usize) -> Instance<N> {
    let act = (horizon / 3).max(1);
    let steps = (0..horizon)
        .map(|t| {
            let x = if t < act {
                0.0
            } else if t < 2 * act {
                40.0
            } else {
                40.0 + 1.2 * (t - 2 * act + 1) as f64
            };
            let mut p = Point::<N>::origin();
            p[0] = x;
            Step::single(p)
        })
        .collect();
    Instance::new(2.0, 1.0, Point::origin(), steps)
}

/// Four demand districts on a ring; each fires independently every step.
/// The simultaneous multi-site demand is what the k-server exploration
/// (`server_fleet` example) stresses.
#[derive(Clone, Debug)]
struct RingDistrictsSource<const N: usize> {
    sampler: SeededSampler,
    sites: Vec<Point<N>>,
    spread: f64,
    request_probability: f64,
}

impl<const N: usize> RingDistrictsSource<N> {
    fn new(sites: usize, radius: f64, spread: f64, request_probability: f64, seed: u64) -> Self {
        let sites = (0..sites)
            .map(|i| {
                let ang = std::f64::consts::TAU * i as f64 / sites as f64;
                let mut p = Point::<N>::origin();
                p[0] = radius * ang.cos();
                if N > 1 {
                    p[1] = radius * ang.sin();
                }
                p
            })
            .collect();
        RingDistrictsSource {
            sampler: SeededSampler::new(seed),
            sites,
            spread,
            request_probability,
        }
    }
}

impl<const N: usize> StepSource<N> for RingDistrictsSource<N> {
    fn next_step(&mut self) -> Step<N> {
        let mut requests = Vec::new();
        for site in &self.sites {
            if self.sampler.uniform(0.0, 1.0) < self.request_probability {
                requests.push(self.sampler.gaussian_point(site, self.spread));
            }
        }
        Step::new(requests)
    }
}

/// The full scenario catalog.
pub fn registry() -> Vec<ScenarioSpec> {
    let thm2_default = thm2_params(0.2);
    vec![
        ScenarioSpec {
            name: "walk-line",
            summary: "single demand point on a bounded 1-D random walk (Theorem 4 line workload)",
            dim: 1,
            default_horizon: 2_000,
            default_delta: 0.2,
            family: Family::WalkLine,
        },
        ScenarioSpec {
            name: "walk-plane",
            summary: "planar random walk with a small request cloud",
            dim: 2,
            default_horizon: 2_000,
            default_delta: 0.25,
            family: Family::WalkPlane,
        },
        ScenarioSpec {
            name: "edge-drift",
            summary: "edge-computing hotspot drifting through a city arena",
            dim: 2,
            default_horizon: 2_000,
            default_delta: 0.25,
            family: Family::EdgeDrift,
        },
        ScenarioSpec {
            name: "car-fleet",
            summary: "autonomous-car fleet on random waypoints, random subset requests",
            dim: 2,
            default_horizon: 3_000,
            default_delta: 0.25,
            family: Family::CarFleet,
        },
        ScenarioSpec {
            name: "district-clusters",
            summary: "Gaussian demand clusters with rare regime switches between districts",
            dim: 2,
            default_horizon: 2_000,
            default_delta: 0.25,
            family: Family::DistrictClusters,
        },
        ScenarioSpec {
            name: "disaster-waypoint",
            summary: "Moving-Client variant: search party on random waypoints, equal speeds",
            dim: 2,
            default_horizon: 2_000,
            default_delta: 0.0,
            family: Family::DisasterWaypoint,
        },
        ScenarioSpec {
            name: "disaster-runaway",
            summary: "Moving-Client variant: agent outruns the server in a straight line",
            dim: 2,
            default_horizon: 2_000,
            default_delta: 0.6,
            family: Family::DisasterRunaway,
        },
        ScenarioSpec {
            name: "regime-shift-line",
            summary: "deterministic three-act line workload (parked, jump, runaway)",
            dim: 1,
            default_horizon: 500,
            default_delta: 0.3,
            family: Family::RegimeShiftLine,
        },
        ScenarioSpec {
            name: "ring-districts",
            summary: "four districts on a ring firing simultaneously (k-server exploration)",
            dim: 2,
            default_horizon: 1_500,
            default_delta: 0.0,
            family: Family::RingDistricts,
        },
        ScenarioSpec {
            name: "adv-thm1",
            summary: "Theorem 1 adversary: Ω(√(T/D)) without augmentation",
            dim: 1,
            default_horizon: 2_000,
            default_delta: 0.0,
            family: Family::AdvThm1,
        },
        ScenarioSpec {
            name: "adv-thm2",
            summary: "Theorem 2 adversary on the line: Ω(1/δ) under (1+δ)m augmentation",
            dim: 1,
            default_horizon: thm2_default.horizon(),
            default_delta: 0.2,
            family: Family::AdvThm2,
        },
        ScenarioSpec {
            name: "adv-thm2-rotating",
            summary: "Theorem 2 adversary escaping in random planar directions",
            dim: 2,
            default_horizon: thm2_default.horizon(),
            default_delta: 0.2,
            family: Family::AdvThm2Rotating,
        },
        ScenarioSpec {
            name: "adv-thm3",
            summary: "Theorem 3 adversary: Ω(r/D) under Answer-First serving",
            dim: 1,
            default_horizon: 2_000,
            default_delta: 0.2,
            family: Family::AdvThm3,
        },
        ScenarioSpec {
            name: "replay-edge-drift",
            summary: "edge-drift recorded to a block v3 trace and replayed from the decoded steps",
            dim: 2,
            default_horizon: 2_000,
            default_delta: 0.25,
            family: Family::ReplayEdgeDrift,
        },
        ScenarioSpec {
            name: "fleet-chase",
            summary: "single server chasing the trail driven by a 3-server MtC fleet (k-server extension)",
            dim: 2,
            default_horizon: 1_000,
            default_delta: 0.25,
            family: Family::FleetChase,
        },
    ]
}

/// Finds a scenario by name.
///
/// ```
/// use msp_scenarios::registry::{lookup, ScenarioKnobs};
/// use msp_scenarios::stream::RequestStream;
///
/// let spec = lookup("edge-drift").expect("catalog entry");
/// assert_eq!(spec.dim, 2);
///
/// // Open a short replayable stream (the horizon knob overrides the
/// // spec's default) and drain it.
/// let mut stream = spec
///     .stream_with::<2>(7, &ScenarioKnobs::horizon(16))
///     .unwrap();
/// let mut steps = 0;
/// while let Some(_step) = stream.next_step() {
///     steps += 1;
/// }
/// assert_eq!(steps, 16);
///
/// // Rewinding replays the exact same steps — streams are durable.
/// stream.rewind();
/// assert!(stream.next_step().is_some());
/// ```
pub fn lookup(name: &str) -> Option<ScenarioSpec> {
    registry().into_iter().find(|s| s.name == name)
}

/// [`lookup`] that errors instead of returning `None`.
pub fn lookup_or_err(name: &str) -> Result<ScenarioSpec, ScenarioError> {
    lookup(name).ok_or_else(|| ScenarioError::UnknownScenario(name.to_string()))
}

/// Panicking [`lookup`] for examples and quick scripts, with the
/// available names in the panic message.
///
/// # Panics
/// Panics when no scenario has the requested name. Library code should
/// use [`lookup_or_err`] and propagate the [`RegistryError`].
pub fn must_lookup(name: &str) -> ScenarioSpec {
    lookup(name).unwrap_or_else(|| {
        let names: Vec<&str> = registry().iter().map(|s| s.name).collect();
        panic!(
            "unknown scenario {name:?}; registered: {}",
            names.join(", ")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::collect_instance;

    #[test]
    fn registry_has_at_least_ten_unique_names() {
        let specs = registry();
        assert!(specs.len() >= 10, "only {} scenarios", specs.len());
        let mut names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), specs.len(), "duplicate scenario names");
    }

    #[test]
    fn every_scenario_streams_and_replays() {
        fn check<const N: usize>(spec: &ScenarioSpec) {
            let knobs = ScenarioKnobs::horizon(64);
            let mut s = spec.stream_with::<N>(7, &knobs).unwrap();
            let first: Vec<_> = std::iter::from_fn(|| s.next_step()).collect();
            s.rewind();
            let second: Vec<_> = std::iter::from_fn(|| s.next_step()).collect();
            assert!(!first.is_empty(), "{} produced no steps", spec.name);
            assert_eq!(first.len(), second.len(), "{}", spec.name);
            for (a, b) in first.iter().zip(&second) {
                assert_eq!(a.requests, b.requests, "{} replay diverged", spec.name);
            }
        }
        for spec in registry() {
            match spec.dim {
                1 => check::<1>(&spec),
                2 => check::<2>(&spec),
                other => panic!("unexpected dimension {other}"),
            }
        }
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let spec = lookup("edge-drift").unwrap();
        match spec.stream::<1>(0) {
            Err(ScenarioError::DimensionMismatch {
                expected: 2,
                requested: 1,
                ..
            }) => {}
            other => panic!("expected dimension error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn horizon_knob_controls_generator_length() {
        let spec = lookup("walk-plane").unwrap();
        for h in [10usize, 100] {
            let mut s = spec
                .stream_with::<2>(1, &ScenarioKnobs::horizon(h))
                .unwrap();
            let inst = collect_instance(s.as_mut());
            assert_eq!(inst.horizon(), h);
        }
    }

    #[test]
    fn horizon_knob_truncates_instance_backed_scenarios() {
        let spec = lookup("adv-thm2").unwrap();
        let mut s = spec
            .stream_with::<1>(3, &ScenarioKnobs::horizon(17))
            .unwrap();
        assert_eq!(collect_instance(s.as_mut()).horizon(), 17);
    }

    #[test]
    fn delta_knob_resizes_the_thm2_construction() {
        let spec = lookup("adv-thm2").unwrap();
        let small = collect_instance(
            spec.stream_with::<1>(0, &ScenarioKnobs::delta(0.8))
                .unwrap()
                .as_mut(),
        );
        let large = collect_instance(
            spec.stream_with::<1>(0, &ScenarioKnobs::delta(0.1))
                .unwrap()
                .as_mut(),
        );
        assert!(
            large.horizon() > small.horizon(),
            "smaller δ must lengthen the chase: {} vs {}",
            large.horizon(),
            small.horizon()
        );
    }

    #[test]
    fn replay_scenario_matches_its_source() {
        let knobs = ScenarioKnobs::horizon(100);
        let mut source = lookup("edge-drift")
            .unwrap()
            .stream_with::<2>(5, &knobs)
            .unwrap();
        let mut replay = lookup("replay-edge-drift")
            .unwrap()
            .stream_with::<2>(5, &knobs)
            .unwrap();
        assert_eq!(
            crate::trace::diff_streams(source.as_mut(), replay.as_mut()),
            None
        );
    }

    #[test]
    fn moving_client_accessor_matches_stream() {
        let spec = lookup("disaster-runaway").unwrap();
        let knobs = ScenarioKnobs::horizon(50);
        let mc = spec.moving_client::<2>(9, &knobs).unwrap();
        let mut s = spec.stream_with::<2>(9, &knobs).unwrap();
        let inst = collect_instance(s.as_mut());
        let lowered = mc.to_instance();
        assert_eq!(inst.horizon(), lowered.horizon());
        for (a, b) in inst.steps.iter().zip(&lowered.steps) {
            assert_eq!(a.requests, b.requests);
        }
    }

    #[test]
    fn unknown_scenario_errors() {
        assert!(matches!(
            lookup_or_err("no-such-thing"),
            Err(ScenarioError::UnknownScenario(_))
        ));
    }

    #[test]
    fn must_lookup_finds_registered_scenarios() {
        assert_eq!(must_lookup("edge-drift").name, "edge-drift");
    }

    #[test]
    #[should_panic(expected = "unknown scenario")]
    fn must_lookup_panics_with_the_catalog() {
        let _ = must_lookup("no-such-thing");
    }

    #[test]
    fn moving_client_accessor_is_none_off_family() {
        let spec = lookup("edge-drift").unwrap();
        assert!(spec
            .moving_client::<2>(0, &ScenarioKnobs::default())
            .is_none());
    }
}

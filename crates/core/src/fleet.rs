//! Speed-limited server fleets — the paper's future-work direction.
//!
//! The conclusion asks whether "the idea of limiting the movement of
//! resources within a time slot also can be applied to other popular
//! models such as the k-Server Problem (effectively turning it into the
//! Page Migration Problem with multiple pages)". This module implements
//! that model as an exploratory extension: `k` mobile servers each move at
//! most `m` per round (cost `D` per unit distance each), and every request
//! is served by the *nearest* server after the moves.
//!
//! No competitive analysis is claimed here (that is precisely the open
//! problem); the module provides the substrate — cost accounting, a
//! partition-based fleet version of Move-to-Center, and a greedy fleet —
//! plus experiment E12, which measures how much a second or fourth server
//! buys on multi-site workloads.

use crate::algorithm::AlgContext;
use crate::cost::{CostBreakdown, ServingOrder, StepCost};
use crate::model::Instance;
use crate::mtc::MoveToCenter;
use msp_geometry::median::{weighted_center, MedianOptions};
use msp_geometry::{step_towards, Point};

/// A fleet policy: given all server positions and the step's requests,
/// propose new positions (clamped per-server to the budget by the runner).
pub trait FleetAlgorithm<const N: usize> {
    /// Stable name for tables.
    fn name(&self) -> String;
    /// Resets internal state for a fresh run.
    fn reset(&mut self, ctx: &AlgContext<N>, k: usize);
    /// Proposes the next position of every server.
    fn decide(
        &mut self,
        servers: &[Point<N>],
        requests: &[Point<N>],
        ctx: &AlgContext<N>,
    ) -> Vec<Point<N>>;
}

impl<const N: usize> FleetAlgorithm<N> for Box<dyn FleetAlgorithm<N>> {
    fn name(&self) -> String {
        self.as_ref().name()
    }
    fn reset(&mut self, ctx: &AlgContext<N>, k: usize) {
        self.as_mut().reset(ctx, k);
    }
    fn decide(
        &mut self,
        servers: &[Point<N>],
        requests: &[Point<N>],
        ctx: &AlgContext<N>,
    ) -> Vec<Point<N>> {
        self.as_mut().decide(servers, requests, ctx)
    }
}

/// Result of a fleet run.
#[derive(Clone, Debug)]
pub struct FleetRunResult<const N: usize> {
    /// Policy name.
    pub algorithm: String,
    /// Positions over time: `trajectories[i]` is server `i`'s path
    /// (`T + 1` points each).
    pub trajectories: Vec<Vec<Point<N>>>,
    /// Aggregated cost (movement sums over all servers; service takes the
    /// per-request minimum over servers).
    pub cost: CostBreakdown,
}

impl<const N: usize> FleetRunResult<N> {
    /// Total cost of the run.
    pub fn total_cost(&self) -> f64 {
        self.cost.total()
    }
}

/// Service cost with a fleet: each request goes to its nearest server.
pub fn fleet_service_cost<const N: usize>(servers: &[Point<N>], requests: &[Point<N>]) -> f64 {
    requests
        .iter()
        .map(|v| {
            servers
                .iter()
                .map(|s| s.distance(v))
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Partitions request indices by nearest server (ties to the lower index).
pub fn partition_by_nearest<const N: usize>(
    servers: &[Point<N>],
    requests: &[Point<N>],
) -> Vec<Vec<usize>> {
    let mut parts = vec![Vec::new(); servers.len()];
    for (ri, v) in requests.iter().enumerate() {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (si, s) in servers.iter().enumerate() {
            let d = s.distance(v);
            if d < best_d {
                best_d = d;
                best = si;
            }
        }
        parts[best].push(ri);
    }
    parts
}

/// Runs a fleet policy over an instance with `k` servers, all starting at
/// the instance start. Movement budgets are enforced per server.
pub fn run_fleet<const N: usize, A: FleetAlgorithm<N>>(
    instance: &Instance<N>,
    k: usize,
    algorithm: &mut A,
    delta: f64,
    order: ServingOrder,
) -> FleetRunResult<N> {
    assert!(k >= 1, "need at least one server");
    let ctx = AlgContext::new(instance, delta);
    algorithm.reset(&ctx, k);
    let budget = ctx.online_budget();

    let mut servers = vec![instance.start; k];
    let mut trajectories: Vec<Vec<Point<N>>> = vec![vec![instance.start]; k];
    let mut cost = CostBreakdown {
        per_step: Vec::with_capacity(instance.horizon()),
        ..Default::default()
    };

    for step in &instance.steps {
        let proposals = algorithm.decide(&servers, &step.requests, &ctx);
        assert_eq!(
            proposals.len(),
            k,
            "{} proposed {} positions for {k} servers",
            algorithm.name(),
            proposals.len()
        );
        let mut movement = 0.0;
        let mut next = Vec::with_capacity(k);
        for (s, p) in servers.iter().zip(&proposals) {
            let clamped = step_towards(s, p, budget);
            movement += instance.d * s.distance(&clamped);
            next.push(clamped);
        }
        let service = fleet_service_cost(order.serve_from(&servers, &next), &step.requests);
        cost.movement += movement;
        cost.service += service;
        cost.per_step.push(StepCost { movement, service });
        servers = next;
        for (i, s) in servers.iter().enumerate() {
            trajectories[i].push(*s);
        }
    }

    FleetRunResult {
        algorithm: algorithm.name(),
        trajectories,
        cost,
    }
}

/// Fleet version of Move-to-Center: requests are partitioned to their
/// nearest server; each server applies the paper's single-server rule to
/// its own partition (`r_i` = partition size), staying put when idle.
#[derive(Clone, Debug, Default)]
pub struct MtcFleet<const N: usize> {
    single: MoveToCenter<N>,
}

impl<const N: usize> MtcFleet<N> {
    /// Paper-faithful per-server rule.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<const N: usize> FleetAlgorithm<N> for MtcFleet<N> {
    fn name(&self) -> String {
        "mtc-fleet".into()
    }

    fn reset(&mut self, _ctx: &AlgContext<N>, _k: usize) {}

    fn decide(
        &mut self,
        servers: &[Point<N>],
        requests: &[Point<N>],
        ctx: &AlgContext<N>,
    ) -> Vec<Point<N>> {
        let parts = partition_by_nearest(servers, requests);
        servers
            .iter()
            .zip(&parts)
            .map(|(s, part)| {
                if part.is_empty() {
                    return *s;
                }
                let mine: Vec<Point<N>> = part.iter().map(|&i| requests[i]).collect();
                let c = self.single.center_of(&mine, s);
                let pull = (mine.len() as f64 / ctx.d).min(1.0) * s.distance(&c);
                step_towards(s, &c, pull.min(ctx.online_budget()))
            })
            .collect()
    }
}

/// Greedy fleet: each server moves at full budget towards the 1-median of
/// its partition.
#[derive(Clone, Debug, Default)]
pub struct GreedyFleet;

impl<const N: usize> FleetAlgorithm<N> for GreedyFleet {
    fn name(&self) -> String {
        "greedy-fleet".into()
    }

    fn reset(&mut self, _ctx: &AlgContext<N>, _k: usize) {}

    fn decide(
        &mut self,
        servers: &[Point<N>],
        requests: &[Point<N>],
        ctx: &AlgContext<N>,
    ) -> Vec<Point<N>> {
        let parts = partition_by_nearest(servers, requests);
        servers
            .iter()
            .zip(&parts)
            .map(|(s, part)| {
                if part.is_empty() {
                    return *s;
                }
                let mine: Vec<Point<N>> = part.iter().map(|&i| requests[i]).collect();
                let c = weighted_center(&mine, s, MedianOptions::default());
                step_towards(s, &c, ctx.online_budget())
            })
            .collect()
    }
}

/// Spread fleet: like [`MtcFleet`], but idle servers drift towards distinct
/// request clusters instead of staying put — a simple exploration bonus
/// that helps when demand splits across sites. Idle server `i` heads (at
/// half budget) towards the `i`-th farthest request from the busy pack,
/// seeding coverage.
#[derive(Clone, Debug, Default)]
pub struct SpreadFleet<const N: usize> {
    single: MoveToCenter<N>,
}

impl<const N: usize> SpreadFleet<N> {
    /// Fleet with the exploration heuristic enabled.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<const N: usize> FleetAlgorithm<N> for SpreadFleet<N> {
    fn name(&self) -> String {
        "spread-fleet".into()
    }

    fn reset(&mut self, _ctx: &AlgContext<N>, _k: usize) {}

    fn decide(
        &mut self,
        servers: &[Point<N>],
        requests: &[Point<N>],
        ctx: &AlgContext<N>,
    ) -> Vec<Point<N>> {
        let parts = partition_by_nearest(servers, requests);
        servers
            .iter()
            .enumerate()
            .map(|(si, s)| {
                let part = &parts[si];
                if !part.is_empty() {
                    let mine: Vec<Point<N>> = part.iter().map(|&i| requests[i]).collect();
                    let c = self.single.center_of(&mine, s);
                    let pull = (mine.len() as f64 / ctx.d).min(1.0) * s.distance(&c);
                    return step_towards(s, &c, pull.min(ctx.online_budget()));
                }
                // Idle: drift towards the request farthest from any busy
                // server, claiming uncovered demand.
                if requests.is_empty() {
                    return *s;
                }
                let target = requests
                    .iter()
                    .max_by(|a, b| {
                        let da = servers
                            .iter()
                            .map(|t| t.distance(a))
                            .fold(f64::INFINITY, f64::min);
                        let db = servers
                            .iter()
                            .map(|t| t.distance(b))
                            .fold(f64::INFINITY, f64::min);
                        da.total_cmp(&db)
                    })
                    .unwrap();
                step_towards(s, target, ctx.online_budget() / 2.0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Step;
    use crate::simulator::run as run_single;
    use msp_geometry::P2;

    fn two_site_instance(t: usize) -> Instance<2> {
        // Requests alternate between two far-apart sites.
        let a = P2::xy(-10.0, 0.0);
        let b = P2::xy(10.0, 0.0);
        let steps = (0..t)
            .map(|i| Step::new(vec![if i % 2 == 0 { a } else { b }]))
            .collect();
        Instance::new(2.0, 1.0, P2::origin(), steps)
    }

    #[test]
    fn single_server_fleet_matches_the_plain_simulator() {
        let inst = two_site_instance(40);
        let mut fleet = MtcFleet::new();
        let fleet_res = run_fleet(&inst, 1, &mut fleet, 0.25, ServingOrder::MoveFirst);
        let mut single = MoveToCenter::new();
        let single_res = run_single(&inst, &mut single, 0.25, ServingOrder::MoveFirst);
        assert!(
            (fleet_res.total_cost() - single_res.total_cost()).abs() < 1e-9,
            "k=1 fleet {} vs single-server {}",
            fleet_res.total_cost(),
            single_res.total_cost()
        );
        assert_eq!(fleet_res.trajectories[0], single_res.positions);
    }

    #[test]
    fn two_servers_beat_one_on_two_sites() {
        let inst = two_site_instance(200);
        let mut fleet = MtcFleet::new();
        let one = run_fleet(&inst, 1, &mut fleet, 0.0, ServingOrder::MoveFirst).total_cost();
        let two = run_fleet(&inst, 2, &mut fleet, 0.0, ServingOrder::MoveFirst).total_cost();
        // A second server can park on the other site; one server must
        // either commute or absorb the distance forever.
        assert!(
            two < 0.8 * one,
            "second server should clearly help: k=1 → {one}, k=2 → {two}"
        );
    }

    #[test]
    fn budgets_enforced_per_server() {
        let inst = two_site_instance(30);
        let mut fleet = GreedyFleet;
        let res = run_fleet(&inst, 3, &mut fleet, 0.5, ServingOrder::MoveFirst);
        let budget = 1.5;
        for traj in &res.trajectories {
            for w in traj.windows(2) {
                assert!(w[0].distance(&w[1]) <= budget + 1e-9);
            }
        }
    }

    #[test]
    fn fleet_service_uses_nearest_server() {
        let servers = [P2::xy(-5.0, 0.0), P2::xy(5.0, 0.0)];
        let requests = [P2::xy(-4.0, 0.0), P2::xy(6.0, 0.0), P2::origin()];
        // 1 + 1 + 5.
        assert!((fleet_service_cost(&servers, &requests) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn partition_assigns_to_nearest() {
        let servers = [P2::xy(-5.0, 0.0), P2::xy(5.0, 0.0)];
        let requests = [P2::xy(-4.0, 0.0), P2::xy(6.0, 0.0), P2::xy(1.0, 0.0)];
        let parts = partition_by_nearest(&servers, &requests);
        assert_eq!(parts[0], vec![0]);
        assert_eq!(parts[1], vec![1, 2]);
    }

    #[test]
    fn spread_fleet_covers_a_second_site_faster_than_mtc_fleet() {
        // Both sites fire every round; idle drift lets the spare server
        // claim the far site even though the near server hogs the
        // partition early on.
        let a = P2::xy(-8.0, 0.0);
        let b = P2::xy(8.0, 0.1);
        let steps = (0..120).map(|_| Step::new(vec![a, b])).collect();
        let inst = Instance::new(2.0, 1.0, P2::origin(), steps);
        let mut spread = SpreadFleet::new();
        let mut plain = MtcFleet::new();
        let s = run_fleet(&inst, 2, &mut spread, 0.0, ServingOrder::MoveFirst).total_cost();
        let p = run_fleet(&inst, 2, &mut plain, 0.0, ServingOrder::MoveFirst).total_cost();
        assert!(
            s <= p + 1e-9,
            "exploration should not hurt on two hot sites: spread {s} vs plain {p}"
        );
    }

    #[test]
    fn answer_first_fleet_charges_old_positions() {
        let inst = two_site_instance(2);
        let mut fleet = GreedyFleet;
        let mf = run_fleet(&inst, 1, &mut fleet, 0.0, ServingOrder::MoveFirst).total_cost();
        let af = run_fleet(&inst, 1, &mut fleet, 0.0, ServingOrder::AnswerFirst).total_cost();
        assert!(af >= mf, "answer-first should not be cheaper here");
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let inst = two_site_instance(2);
        let mut fleet = MtcFleet::new();
        let _ = run_fleet(&inst, 0, &mut fleet, 0.0, ServingOrder::MoveFirst);
    }
}

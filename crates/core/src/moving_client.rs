//! The Moving-Client variant (Section 5).
//!
//! A single *agent* issues the requests and is itself speed-limited: it
//! starts at the common origin `A_0 = P_0` and moves at most `m_a` per
//! step; the server moves at most `m_s`. In round `t` the agent position
//! `A_t` is revealed, the server moves (knowing `A_t`), and pays
//! `D·d(P_{t-1}, P_t) + d(P_t, A_t)` — i.e. exactly the Move-First model
//! with one request per step located at `A_t`.
//!
//! The paper's results:
//! * Theorem 8 — with `m_a = (1+ε)·m_s` no online algorithm beats
//!   `Ω(√T·ε/(1+ε))` (the agent can run away).
//! * Corollary 9 — with augmentation `(1+δ)m_s` MtC is
//!   `O(1/δ^{3/2})`-competitive.
//! * Theorem 10 — with `m_s ≥ m_a` MtC is `O(1)`-competitive **without**
//!   augmentation. The algorithm the paper states ("move
//!   `min(m_s, d(P_{t-1}, A_t)/D)` towards `A_t`") is precisely
//!   [`crate::mtc::MoveToCenter`] specialized to `r = 1 ≤ D`, so the same
//!   implementation covers this variant.

use crate::model::{Instance, Step};
use msp_geometry::Point;

/// A validated speed-limited agent trajectory `A_1 … A_T` with implicit
/// start `A_0`.
#[derive(Clone, Debug)]
pub struct AgentWalk<const N: usize> {
    start: Point<N>,
    positions: Vec<Point<N>>,
    max_speed: f64,
}

impl<const N: usize> AgentWalk<N> {
    /// Wraps a trajectory, asserting the per-step speed limit.
    ///
    /// # Panics
    /// Panics when any displacement (including `start → positions[0]`)
    /// exceeds `max_speed` beyond tolerance, or on non-finite input.
    pub fn new(start: Point<N>, positions: Vec<Point<N>>, max_speed: f64) -> Self {
        assert!(
            max_speed >= 0.0 && max_speed.is_finite(),
            "agent speed must be finite and non-negative"
        );
        let mut prev = start;
        for (t, p) in positions.iter().enumerate() {
            assert!(p.is_finite(), "agent position {t} not finite");
            let d = prev.distance(p);
            assert!(
                d <= max_speed + 1e-9,
                "agent moved {d} > m_a = {max_speed} at step {t}"
            );
            prev = *p;
        }
        AgentWalk {
            start,
            positions,
            max_speed,
        }
    }

    /// Builds a walk by iterating a kinematics function
    /// `f(t, previous) → next`, clamping each step to the speed limit so
    /// generators cannot accidentally violate the model.
    pub fn from_fn(
        start: Point<N>,
        horizon: usize,
        max_speed: f64,
        mut f: impl FnMut(usize, &Point<N>) -> Point<N>,
    ) -> Self {
        let mut positions = Vec::with_capacity(horizon);
        let mut prev = start;
        for t in 0..horizon {
            let proposed = f(t, &prev);
            let next = msp_geometry::step_towards(&prev, &proposed, max_speed);
            positions.push(next);
            prev = next;
        }
        AgentWalk {
            start,
            positions,
            max_speed,
        }
    }

    /// The common origin `A_0`.
    pub fn start(&self) -> Point<N> {
        self.start
    }

    /// The revealed positions `A_1 … A_T`.
    pub fn positions(&self) -> &[Point<N>] {
        &self.positions
    }

    /// Horizon `T`.
    pub fn horizon(&self) -> usize {
        self.positions.len()
    }

    /// The speed limit `m_a` the walk satisfies.
    pub fn max_speed(&self) -> f64 {
        self.max_speed
    }
}

/// A complete Moving-Client instance.
#[derive(Clone, Debug)]
pub struct MovingClientInstance<const N: usize> {
    /// Movement cost weight `D ≥ 1`.
    pub d: f64,
    /// Server speed limit `m_s`.
    pub server_speed: f64,
    /// The agent's walk (speed `m_a` is a property of the walk).
    pub agent: AgentWalk<N>,
}

impl<const N: usize> MovingClientInstance<N> {
    /// Builds the instance; the server starts at the agent's origin, as in
    /// the paper (`A_0 = P_0`).
    pub fn new(d: f64, server_speed: f64, agent: AgentWalk<N>) -> Self {
        assert!(d >= 1.0, "D must be ≥ 1");
        assert!(
            server_speed > 0.0 && server_speed.is_finite(),
            "server speed must be positive"
        );
        MovingClientInstance {
            d,
            server_speed,
            agent,
        }
    }

    /// Ratio `m_a / m_s`; Theorem 8 applies when it exceeds 1, Theorem 10
    /// when it is at most 1.
    pub fn speed_ratio(&self) -> f64 {
        self.agent.max_speed() / self.server_speed
    }

    /// Lowers the variant to the base model: one request per step at the
    /// agent's position, Move-First pricing, movement limit `m_s`. Every
    /// algorithm, solver and cost tool of the base model then applies
    /// unchanged.
    pub fn to_instance(&self) -> Instance<N> {
        let steps = self
            .agent
            .positions()
            .iter()
            .map(|a| Step::single(*a))
            .collect();
        Instance::new(self.d, self.server_speed, self.agent.start(), steps)
    }
}

/// The multi-agent extension of the Moving-Client variant.
///
/// Section 5 notes that "our results can be modified to also work for
/// multiple agents by similar arguments as in the original problem": `k`
/// speed-limited agents issue one request each per round, so the lowering
/// produces `r = k` requests per step and Theorem 4's machinery applies
/// with `R_min = R_max = k`. When every agent is at most as fast as the
/// server, the MtC chase remains O(1)-competitive (experiment E11).
#[derive(Clone, Debug)]
pub struct MultiAgentInstance<const N: usize> {
    /// Movement cost weight `D ≥ 1`.
    pub d: f64,
    /// Server speed limit `m_s`.
    pub server_speed: f64,
    /// The agents' walks; all must share the server's start and horizon.
    pub agents: Vec<AgentWalk<N>>,
}

impl<const N: usize> MultiAgentInstance<N> {
    /// Builds the instance.
    ///
    /// # Panics
    /// Panics when agents disagree on horizon or start, or the list is
    /// empty — the model needs a common round structure.
    pub fn new(d: f64, server_speed: f64, agents: Vec<AgentWalk<N>>) -> Self {
        assert!(d >= 1.0, "D must be ≥ 1");
        assert!(
            server_speed > 0.0 && server_speed.is_finite(),
            "server speed must be positive"
        );
        assert!(!agents.is_empty(), "need at least one agent");
        let horizon = agents[0].horizon();
        let start = agents[0].start();
        for (i, a) in agents.iter().enumerate() {
            assert_eq!(a.horizon(), horizon, "agent {i} horizon mismatch");
            assert!(
                a.start().distance(&start) <= 1e-9,
                "agent {i} start mismatch"
            );
        }
        MultiAgentInstance {
            d,
            server_speed,
            agents,
        }
    }

    /// Lowers to the base model: step `t` carries one request per agent at
    /// its position `A^{(i)}_t`.
    pub fn to_instance(&self) -> Instance<N> {
        let horizon = self.agents[0].horizon();
        let steps = (0..horizon)
            .map(|t| Step::new(self.agents.iter().map(|a| a.positions()[t]).collect()))
            .collect();
        Instance::new(self.d, self.server_speed, self.agents[0].start(), steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ServingOrder;
    use crate::mtc::MoveToCenter;
    use crate::simulator::run;
    use msp_geometry::P2;

    fn straight_walk(t: usize, speed: f64) -> AgentWalk<2> {
        AgentWalk::from_fn(P2::origin(), t, speed, |_, prev| *prev + P2::xy(10.0, 0.0))
    }

    #[test]
    fn from_fn_clamps_to_speed() {
        let w = straight_walk(5, 0.5);
        assert_eq!(w.horizon(), 5);
        let mut prev = w.start();
        for p in w.positions() {
            assert!(prev.distance(p) <= 0.5 + 1e-12);
            prev = *p;
        }
        assert!((w.positions()[4].distance(&P2::origin()) - 2.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "agent moved")]
    fn validation_rejects_speeding_agent() {
        let _ = AgentWalk::new(P2::origin(), vec![P2::xy(5.0, 0.0)], 1.0);
    }

    #[test]
    fn validation_accepts_legal_walk() {
        let w = AgentWalk::new(P2::origin(), vec![P2::xy(1.0, 0.0), P2::xy(1.0, 1.0)], 1.0);
        assert_eq!(w.horizon(), 2);
    }

    #[test]
    fn lowering_produces_single_request_steps() {
        let mc = MovingClientInstance::new(2.0, 1.0, straight_walk(6, 0.8));
        let inst = mc.to_instance();
        assert_eq!(inst.horizon(), 6);
        assert!(inst.has_fixed_request_count(1));
        assert_eq!(inst.max_move, 1.0);
        assert_eq!(inst.d, 2.0);
    }

    #[test]
    fn speed_ratio_classifies_regimes() {
        let slow_agent = MovingClientInstance::new(1.0, 1.0, straight_walk(3, 0.5));
        assert!(slow_agent.speed_ratio() <= 1.0);
        let fast_agent = MovingClientInstance::new(1.0, 1.0, straight_walk(3, 1.5));
        assert!(fast_agent.speed_ratio() > 1.0);
    }

    #[test]
    fn mtc_step_matches_paper_rule_for_single_request() {
        // Paper (Sec. 5): move min(m_s, d(P,A_t)/D) towards A_t. With the
        // agent 4 away, D = 2, m_s = 1 → step 1; with the agent 1 away →
        // step 0.5.
        let mc = MovingClientInstance::new(2.0, 1.0, straight_walk(1, 4.0));
        let inst = mc.to_instance();
        let mut alg = MoveToCenter::new();
        let res = run(&inst, &mut alg, 0.0, ServingOrder::MoveFirst);
        assert!((res.positions[1].distance(&res.positions[0]) - 1.0).abs() < 1e-9);

        let mc2 = MovingClientInstance::new(2.0, 1.0, straight_walk(1, 1.0));
        let res2 = run(&mc2.to_instance(), &mut alg, 0.0, ServingOrder::MoveFirst);
        assert!(
            (res2.positions[1].distance(&res2.positions[0]) - 0.5).abs() < 1e-9,
            "moved {}",
            res2.positions[1].distance(&res2.positions[0])
        );
    }

    #[test]
    fn multi_agent_lowering_has_one_request_per_agent() {
        let walks = vec![
            straight_walk(5, 0.5),
            AgentWalk::from_fn(P2::origin(), 5, 0.5, |_, prev| *prev + P2::xy(0.0, 10.0)),
            AgentWalk::from_fn(P2::origin(), 5, 0.3, |_, prev| *prev - P2::xy(10.0, 0.0)),
        ];
        let multi = MultiAgentInstance::new(2.0, 1.0, walks);
        let inst = multi.to_instance();
        assert!(inst.has_fixed_request_count(3));
        assert_eq!(inst.horizon(), 5);
        // Step 0 requests are the three agents' first positions.
        assert_eq!(inst.steps[0].requests[0], P2::xy(0.5, 0.0));
        assert_eq!(inst.steps[0].requests[1], P2::xy(0.0, 0.5));
        assert_eq!(inst.steps[0].requests[2], P2::xy(-0.3, 0.0));
    }

    #[test]
    #[should_panic(expected = "horizon mismatch")]
    fn multi_agent_rejects_horizon_mismatch() {
        let walks = vec![straight_walk(5, 0.5), straight_walk(6, 0.5)];
        let _ = MultiAgentInstance::new(1.0, 1.0, walks);
    }

    #[test]
    #[should_panic(expected = "at least one agent")]
    fn multi_agent_rejects_empty_list() {
        let _ = MultiAgentInstance::<2>::new(1.0, 1.0, vec![]);
    }

    #[test]
    fn mtc_tracks_a_herd_of_equal_speed_agents() {
        // Three agents moving together (a convoy): MtC should lock onto
        // the convoy and stay within a bounded distance of its median.
        let mk = |offset: f64| {
            AgentWalk::from_fn(P2::origin(), 150, 1.0, move |t, _| {
                P2::xy(t as f64 + 1.0, offset)
            })
        };
        let multi = MultiAgentInstance::new(2.0, 1.0, vec![mk(-0.5), mk(0.0), mk(0.5)]);
        let inst = multi.to_instance();
        let mut alg = MoveToCenter::new();
        let res = run(&inst, &mut alg, 0.0, ServingOrder::MoveFirst);
        // r = 3 > D = 2: MtC chases at full pull; the convoy moves at the
        // server's own speed, so the gap to the convoy median stays
        // bounded by its initial slack.
        let last = res.positions.last().unwrap();
        let convoy_median = P2::xy(150.0, 0.0);
        assert!(
            last.distance(&convoy_median) <= 2.0 * 2.0 + 1.0,
            "lost the convoy: {last:?}"
        );
    }

    #[test]
    fn equal_speed_chase_stays_within_constant_distance() {
        // Theorem 10 intuition: with m_s = m_a the MtC server maintains a
        // distance of at most D·m to the agent once locked on.
        let ms = 1.0;
        let d = 2.0;
        let walk = straight_walk(200, ms);
        let mc = MovingClientInstance::new(d, ms, walk);
        let inst = mc.to_instance();
        let mut alg = MoveToCenter::new();
        let res = run(&inst, &mut alg, 0.0, ServingOrder::MoveFirst);
        for (t, a) in mc.agent.positions().iter().enumerate() {
            let gap = res.positions[t + 1].distance(a);
            assert!(gap <= d * ms + 1e-6, "gap {gap} exceeded D·m at step {t}");
        }
    }
}

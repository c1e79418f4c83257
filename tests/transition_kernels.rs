//! The parity matrix of the offline grid DP's two transition scans.
//!
//! The windowed scan ([`GridDp::solve`], what `grid_optimum` prices) must
//! be **bit-equal** to the all-pairs oracle ([`GridDp::solve_unpruned`]):
//! the pruned window provably enumerates the oracle's transition set and
//! evaluates the same expressions.
//!
//! Proptests sweep random instances in N = 1, 2, 3; the deterministic
//! edge-case suite covers the minimal 2-cells-per-axis grid, a zero
//! movement budget (reach collapses to the start-snap slack), requests
//! pinned to the arena corners, and empty (silent) steps.
//!
//! The one-pass prefix contract rides the same file:
//! [`GridDp::prefix_optima`] must return, at every mark, the value a
//! fresh solver's single-mark pass returns — bit for bit — with the
//! full-horizon mark equal to [`GridDp::solve`] and the optima
//! nondecreasing in the mark.

use mobile_server::core::cost::ServingOrder;
use mobile_server::geometry::sample::SeededSampler;
use mobile_server::offline::GridDp;
use mobile_server::prelude::*;
use proptest::prelude::*;

const ORDERS: [ServingOrder; 2] = [ServingOrder::MoveFirst, ServingOrder::AnswerFirst];

/// Solve with both scans and check their bit-equality in both orders.
fn assert_kernel_matrix<const N: usize>(inst: &Instance<N>, cells: usize, ctx: &str) {
    let mut dp = GridDp::new(inst, cells);
    for order in ORDERS {
        let full = dp.solve_unpruned(inst, order);
        let windowed = dp.solve(inst, order);
        assert_eq!(
            windowed.to_bits(),
            full.to_bits(),
            "{ctx} {order:?}: windowed {windowed} vs all-pairs {full}"
        );
    }
}

/// One forward pass over `marks` (ascending, ending at the horizon)
/// against fresh single-mark passes, [`GridDp::solve`], and monotonicity.
fn assert_prefix_optima<const N: usize>(
    inst: &Instance<N>,
    cells: usize,
    marks: &[usize],
    ctx: &str,
) {
    for order in ORDERS {
        let mut dp = GridDp::new(inst, cells);
        let optima = dp.prefix_optima(inst, order, marks);
        assert_eq!(optima.len(), marks.len(), "{ctx} {order:?}");
        for (&t, &opt) in marks.iter().zip(&optima) {
            let single = GridDp::new(inst, cells).prefix_optima(inst, order, &[t])[0];
            assert_eq!(
                opt.to_bits(),
                single.to_bits(),
                "{ctx} {order:?} t={t}: one pass {opt} vs single mark {single}"
            );
        }
        assert!(
            optima.windows(2).all(|w| w[0] <= w[1]),
            "{ctx} {order:?}: prefix optima decrease: {optima:?}"
        );
        let full = dp.solve(inst, order);
        let last = optima[optima.len() - 1];
        assert_eq!(
            last.to_bits(),
            full.to_bits(),
            "{ctx} {order:?}: mark T {last} vs solve {full}"
        );
    }
}

fn random_instance<const N: usize>(
    seed: u64,
    horizon: usize,
    max_requests: usize,
    d: f64,
    max_move: f64,
) -> Instance<N> {
    let mut s = SeededSampler::new(seed);
    let steps = (0..horizon)
        .map(|_| {
            let r = s.int_inclusive(0, max_requests);
            Step::new((0..r).map(|_| s.point_in_cube(1.3)).collect())
        })
        .collect();
    Instance::new(d, max_move, Point::<N>::origin(), steps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kernels_agree_on_random_line_instances(
        seed in any::<u64>(), d in 1.0f64..6.0, m in 0.05f64..1.5
    ) {
        let inst = random_instance::<1>(seed, 6, 3, d, m);
        for cells in [2usize, 9, 33, 101] {
            assert_kernel_matrix(&inst, cells, &format!("1-D seed={seed} cells={cells}"));
        }
    }

    #[test]
    fn kernels_agree_on_random_planar_instances(
        seed in any::<u64>(), d in 1.0f64..6.0, m in 0.05f64..1.2
    ) {
        let inst = random_instance::<2>(seed, 5, 3, d, m);
        for cells in [2usize, 7, 19] {
            assert_kernel_matrix(&inst, cells, &format!("2-D seed={seed} cells={cells}"));
        }
    }

    #[test]
    fn kernels_agree_on_random_spatial_instances(
        seed in any::<u64>(), d in 1.0f64..5.0, m in 0.1f64..1.0
    ) {
        let inst = random_instance::<3>(seed, 4, 2, d, m);
        for cells in [2usize, 5, 9] {
            assert_kernel_matrix(&inst, cells, &format!("3-D seed={seed} cells={cells}"));
        }
    }

    /// Tiny budgets shrink the window to a cell or two per axis, so the
    /// exact distance check rejects most of the window's candidates.
    #[test]
    fn kernels_agree_when_the_budget_starves_the_window(
        seed in any::<u64>(), d in 1.0f64..8.0
    ) {
        let inst = random_instance::<2>(seed, 5, 2, d, 0.02);
        for cells in [9usize, 25] {
            assert_kernel_matrix(&inst, cells, &format!("starved seed={seed} cells={cells}"));
        }
    }

    /// One forward pass prices every prefix of random line and planar
    /// instances exactly as single-mark passes do, at random mark sets
    /// (mark 0, the empty prefix, included when drawn).
    #[test]
    fn prefix_optima_match_single_mark_passes(
        seed in any::<u64>(),
        d in 1.0f64..6.0,
        m in 0.05f64..1.2,
        drawn in prop::collection::vec(any::<bool>(), 8)
    ) {
        let horizon = drawn.len();
        let marks: Vec<usize> = (0..horizon)
            .filter(|&t| drawn[t])
            .chain([horizon])
            .collect();
        let line = random_instance::<1>(seed, horizon, 3, d, m);
        assert_prefix_optima(&line, 33, &marks, &format!("1-D seed={seed} marks={marks:?}"));
        let plane = random_instance::<2>(seed, horizon, 3, d, m);
        assert_prefix_optima(&plane, 11, &marks, &format!("2-D seed={seed} marks={marks:?}"));
    }
}

#[test]
fn minimal_two_cell_grids_agree_in_every_dimension() {
    // cells_per_axis = 2 is the smallest legal arena: every axis has just
    // its two endpoints.
    let line = random_instance::<1>(7, 5, 2, 2.0, 0.6);
    assert_kernel_matrix(&line, 2, "minimal 1-D");
    let plane = random_instance::<2>(8, 5, 2, 2.0, 0.6);
    assert_kernel_matrix(&plane, 2, "minimal 2-D");
    let space = random_instance::<3>(9, 4, 2, 2.0, 0.6);
    assert_kernel_matrix(&space, 2, "minimal 3-D");
}

#[test]
fn vanishing_movement_budget_reaches_only_the_snap_slack() {
    // m = 1e-9 (the model requires m > 0): the server may never leave its
    // start cell except for the half-diagonal discretization slack, so
    // reach ≈ slack and the window holds only the nearest neighbors.
    let steps = vec![
        Step::new(vec![P2::xy(0.8, 0.3)]),
        Step::new(vec![P2::xy(-0.5, 0.9), P2::xy(0.2, -0.7)]),
        Step::new(vec![]),
        Step::new(vec![P2::xy(1.0, 1.0)]),
    ];
    let inst = Instance::new(3.0, 1e-9, P2::origin(), steps);
    for cells in [2usize, 11, 21] {
        assert_kernel_matrix(&inst, cells, &format!("vanishing budget cells={cells}"));
    }
}

#[test]
fn requests_on_arena_corners_agree() {
    // The bounding box is derived from the requests, so extreme requests
    // sit exactly on the (padded) arena corners; corner cells exercise the
    // clamped windows on every axis.
    let steps = vec![
        Step::new(vec![P2::xy(-2.0, -2.0), P2::xy(2.0, 2.0)]),
        Step::new(vec![P2::xy(2.0, -2.0)]),
        Step::new(vec![P2::xy(-2.0, 2.0), P2::xy(2.0, 2.0)]),
    ];
    let inst = Instance::new(1.5, 0.8, P2::origin(), steps);
    for cells in [5usize, 17, 29] {
        assert_kernel_matrix(&inst, cells, &format!("corners cells={cells}"));
    }
}

#[test]
fn single_request_line_hugging_the_boundary_agrees() {
    // 1-D instance whose lone request sits on the arena edge each step.
    let steps: Vec<Step<1>> = (0..6)
        .map(|t| Step::single(P1::new([if t % 2 == 0 { 2.0 } else { -2.0 }])))
        .collect();
    let inst = Instance::new(4.0, 0.5, P1::origin(), steps);
    for cells in [2usize, 41, 161] {
        assert_kernel_matrix(&inst, cells, &format!("1-D boundary cells={cells}"));
    }
}

/// `grid_optimum` prices the windowed scan, so it is bit-equal to its
/// all-pairs oracle `grid_optimum_unpruned`.
#[test]
fn dt_default_kernel_is_what_grid_optimum_prices() {
    use mobile_server::offline::{grid_optimum, grid_optimum_unpruned};
    let inst = random_instance::<2>(42, 5, 3, 2.0, 0.5);
    for order in ORDERS {
        assert_eq!(
            grid_optimum(&inst, 15, order).to_bits(),
            grid_optimum_unpruned(&inst, 15, order).to_bits(),
            "{order:?}"
        );
    }
}

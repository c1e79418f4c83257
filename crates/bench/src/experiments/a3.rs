//! A3 — Baseline comparison: MtC against the page-migration heritage.
//!
//! Runs every algorithm in the suite over three workload families on the
//! line (exact OPT): drifting hotspot, regime-switching clusters, and the
//! Theorem 2 adversarial family. Classical page-migration strategies
//! (Move-To-Min, Coin-Flip) assume they can jump to a batch's optimum —
//! the movement limit is exactly what they lack, which is the paper's
//! founding observation (Section 5: standard solutions "require moving to
//! a specific point after collecting a batch of requests").

use crate::report::ExperimentReport;
use crate::runner::{line_ratio, mean_over_seeds, Scale, SeedStats};
use msp_adversary::{build_thm2, Thm2Params};
use msp_analysis::{parallel_map, Json, Table};
use msp_core::algorithm::BoxedAlgorithm;
use msp_core::baselines::{FollowCenter, Lazy, MoveToMinN, RandomizedCoinFlip};
use msp_core::cost::ServingOrder;
use msp_core::mtc::MoveToCenter;
use msp_workloads::{
    ClusterMixture, ClusterMixtureConfig, DriftingHotspot, DriftingHotspotConfig, RequestCount,
};

fn make_algorithms() -> Vec<(String, fn() -> BoxedAlgorithm<1>)> {
    vec![
        ("mtc".into(), || Box::new(MoveToCenter::new())),
        ("lazy".into(), || Box::new(Lazy)),
        ("follow-center".into(), || Box::new(FollowCenter::new())),
        ("move-to-min".into(), || Box::new(MoveToMinN::<1>::new())),
        ("coin-flip".into(), || {
            Box::new(RandomizedCoinFlip::<1>::new(0xC01))
        }),
    ]
}

/// MtC against the best baseline, read off the two 95% CIs: disjoint
/// intervals name a winner, intersecting ones do not.
fn verdict(mtc: &SeedStats, best_name: &str, best: &SeedStats) -> String {
    if mtc.ci_hi < best.ci_lo {
        format!("MtC beats {best_name} (95% CIs disjoint)")
    } else if best.ci_hi < mtc.ci_lo {
        format!("{best_name} beats MtC (95% CIs disjoint)")
    } else {
        format!("MtC and {best_name} overlap (95% CIs intersect)")
    }
}

/// Runs A3 at the given scale.
pub fn run(scale: Scale) -> ExperimentReport {
    let delta = 0.2;
    let d = 4.0;
    let seeds = scale.seeds();
    let horizon = scale.horizon(1200);
    let cycles = match scale {
        Scale::Smoke => 2,
        _ => 3,
    };
    let algorithms = make_algorithms();

    let results: Vec<[SeedStats; 3]> = parallel_map(&algorithms, |(_, factory)| {
        let drift = mean_over_seeds(seeds, |seed| {
            let gen = DriftingHotspot::new(DriftingHotspotConfig::<1> {
                horizon,
                d,
                max_move: 1.0,
                drift_speed: 0.6,
                momentum: 0.85,
                spread: 0.4,
                arena_half_width: 100.0,
                count: RequestCount::Fixed(2),
            });
            let inst = gen.generate(seed);
            let mut alg = factory();
            line_ratio(&inst, &mut alg, delta, ServingOrder::MoveFirst)
        });
        let clusters = mean_over_seeds(seeds, |seed| {
            let gen = ClusterMixture::new(ClusterMixtureConfig::<1> {
                horizon,
                d,
                max_move: 1.0,
                sites: 3,
                arena_half_width: 25.0,
                spread: 0.5,
                switch_probability: 0.02,
                count: RequestCount::Fixed(2),
            });
            let inst = gen.generate(seed);
            let mut alg = factory();
            line_ratio(&inst, &mut alg, delta, ServingOrder::MoveFirst)
        });
        let adversarial = mean_over_seeds(seeds, |seed| {
            let p = Thm2Params {
                delta,
                r_min: 1,
                r_max: 2,
                d,
                m: 1.0,
                x: None,
                cycles,
            };
            let cert = build_thm2::<1>(&p, seed);
            let mut alg = factory();
            line_ratio(&cert.instance, &mut alg, delta, ServingOrder::MoveFirst)
        });
        [drift, clusters, adversarial]
    });

    let mut table = Table::new(vec![
        "algorithm",
        "drifting hotspot [95% CI]",
        "cluster switches [95% CI]",
        "Thm-2 adversarial [95% CI]",
    ]);
    let mut json_rows = Vec::new();
    for ((name, _), [drift, clusters, adv]) in algorithms.iter().zip(&results) {
        table.push_row(vec![
            name.clone(),
            drift.cell(),
            clusters.cell(),
            adv.cell(),
        ]);
        json_rows.push(Json::obj([
            ("algorithm", Json::from(name.clone())),
            ("ratio_drift", Json::from(drift.mean)),
            ("ratio_clusters", Json::from(clusters.mean)),
            ("ratio_adversarial", Json::from(adv.mean)),
        ]));
    }

    // MtC against the best baseline (lowest mean ratio) per family.
    let mut findings = Vec::new();
    for (fi, family) in ["drifting hotspot", "cluster switches", "adversarial"]
        .iter()
        .enumerate()
    {
        let mtc = &results[0][fi];
        let (best_name, best) = algorithms[1..]
            .iter()
            .zip(&results[1..])
            .map(|((name, _), r)| (name, &r[fi]))
            .min_by(|a, b| a.1.mean.total_cmp(&b.1.mean))
            .expect("A3 runs baselines");
        findings.push(format!(
            "{family}: MtC {} vs best baseline {best_name} {} — {}.",
            mtc.cell(),
            best.cell(),
            verdict(mtc, best_name, best)
        ));
    }

    ExperimentReport {
        id: "a3",
        title: "Baseline comparison across workload families".into(),
        claim: "MtC is the only strategy with a worst-case guarantee; batch-based page-migration adaptations break under the movement limit.".into(),
        table,
        findings,
        json: Json::Arr(json_rows),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_ranks_all_algorithms() {
        let r = run(Scale::Smoke);
        assert_eq!(r.id, "a3");
        assert_eq!(r.table.len(), 5);
        assert_eq!(r.findings.len(), 3);
    }

    #[test]
    fn verdict_follows_the_confidence_intervals() {
        let stats = |mean, ci_lo, ci_hi| SeedStats { mean, ci_lo, ci_hi };
        // The Quick adversarial row: means within 1%, CIs disjoint.
        let mtc = stats(2.527, 2.521, 2.533);
        let follow = stats(2.502, 2.491, 2.512);
        assert_eq!(
            verdict(&mtc, "follow-center", &follow),
            "follow-center beats MtC (95% CIs disjoint)"
        );
        assert_eq!(
            verdict(&follow, "lazy", &mtc),
            "MtC beats lazy (95% CIs disjoint)"
        );
        assert_eq!(
            verdict(&mtc, "lazy", &stats(2.53, 2.50, 2.56)),
            "MtC and lazy overlap (95% CIs intersect)"
        );
    }
}

//! Live diagnostics: competitive ratio *over time* against the exact
//! incremental optimum, computed **while the stream plays** — no
//! materialized run, no stored trajectory.
//!
//! The exact 1-D solver is naturally online (`IncrementalLineOpt`) and so
//! is the simulator (`StreamingSim`), so the `regime-shift-line` registry
//! scenario is consumed step by step: MtC decides, the rolling PWL DP
//! re-prices the clairvoyant optimum, and we watch "how far behind is MtC
//! right now" — first through a regime change (demand jumps to a far
//! site), then through a runaway phase the augmented budget barely covers.
//!
//! ```text
//! cargo run --release --example diagnostics
//! ```

use mobile_server::analysis::{ascii_chart, Series};
use mobile_server::core::simulator::StreamingSim;
use mobile_server::offline::IncrementalLineOpt;
use mobile_server::prelude::*;
use mobile_server::scenarios::record_to_vec;

fn main() {
    // The three-act line workload from the registry:
    //   act 1: demand parked at x = 0
    //   act 2: demand jumps to x = 40 (regime change)
    //   act 3: demand runs right at speed 1.2
    let spec = lookup("regime-shift-line").expect("regime-shift-line is in the registry");
    let mut stream = spec.stream::<1>(0).expect("1-D scenario");
    let params = stream.params();
    let delta = spec.default_delta;

    // Feed MtC and the exact optimum tracker in lockstep, straight off
    // the stream.
    let mut sim = StreamingSim::new(&params, MoveToCenter::new(), delta, ServingOrder::MoveFirst);
    let mut opt = IncrementalLineOpt::new(
        params.d,
        params.max_move,
        params.start.x(),
        ServingOrder::MoveFirst,
    );

    let mut ratio_series = Vec::new();
    let mut gap_series = Vec::new();
    while let Some(step) = stream.next_step() {
        sim.feed(&step);
        let reqs: Vec<f64> = step.requests.iter().map(|v| v.x()).collect();
        opt.push_step(&reqs);
        let opt_so_far = opt.current_opt();
        ratio_series.push(if opt_so_far > 1e-9 {
            sim.total_cost() / opt_so_far
        } else {
            1.0
        });
        // Distance from the server to the current demand point.
        gap_series.push(sim.position().distance(&step.requests[0]));
    }

    println!(
        "Cumulative competitive ratio over time (scenario `{}`, δ = {delta}, D = {}):\n",
        spec.name, params.d
    );
    println!(
        "{}",
        ascii_chart(&[Series::new("ratio", ratio_series.clone())], 72, 12)
    );
    println!("Server-to-demand gap over time:\n");
    println!("{}", ascii_chart(&[Series::new("gap", gap_series)], 72, 10));

    let final_ratio = ratio_series.last().unwrap();
    println!("Final cumulative ratio: {final_ratio:.3}");
    println!("Act 2's jump spikes the ratio (the page is 40 away and crawls over);");
    println!("act 3's 1.2-speed runaway is just inside the 1.3 budget, so the gap re-closes.");

    // The scenario itself can be exported for replay elsewhere:
    let bytes =
        record_to_vec(stream.as_mut(), TraceFormat::TextV1).expect("recording a registry scenario");
    println!(
        "\nScenario exports to {} bytes of text v1 trace (block v3: {} bytes).",
        bytes.len(),
        record_to_vec(stream.as_mut(), TraceFormat::DURABLE)
            .unwrap()
            .len()
    );
}

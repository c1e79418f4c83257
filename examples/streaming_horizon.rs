//! Production-scale streaming: 1.5 million steps, memory independent of
//! the horizon, with periodic checkpoints and an exact resume.
//!
//! The classic simulator materializes the instance and the full position
//! trace — at T = 1.5M in 2-D that is hundreds of MB. The streaming path
//! pulls steps straight off the generator and keeps running totals only:
//! the live state is one `StreamingSim` (a few hundred bytes) plus the
//! generator's O(1) internals, no matter how long the run.
//!
//! The run checkpoints every 500k steps; afterwards we resume from the
//! 1M checkpoint with a fresh Move-to-Center, replay only the tail, and
//! verify the totals agree with the uninterrupted run bit for bit.
//!
//! ```text
//! cargo run --release --example streaming_horizon
//! ```

use mobile_server::core::simulator::{StreamCheckpoint, StreamingSim};
use mobile_server::prelude::*;
use std::time::Instant;

const HORIZON: usize = 1_500_000;
const CHECKPOINT_EVERY: usize = 500_000;

fn main() {
    let spec = lookup("walk-plane").expect("walk-plane is in the registry");
    let knobs = ScenarioKnobs::horizon(HORIZON);
    let delta = spec.default_delta;

    println!(
        "Streaming `{}` for {HORIZON} steps (checkpoint every {CHECKPOINT_EVERY})\n",
        spec.name
    );

    // Uninterrupted streaming run, snapshotting checkpoints as it goes.
    let mut stream = spec.stream_with::<2>(42, &knobs).expect("2-D scenario");
    let start = Instant::now();
    let mut sim = StreamingSim::new(
        &stream.params(),
        MoveToCenter::new(),
        delta,
        ServingOrder::MoveFirst,
    );
    let mut saved: Option<StreamCheckpoint<2>> = None;
    while let Some(step) = stream.next_step() {
        sim.feed(&step);
        if sim.steps() % CHECKPOINT_EVERY == 0 && sim.steps() < HORIZON {
            let cp = sim.checkpoint();
            println!(
                "  checkpoint @ {:>9}: position {}, cost so far {:.0}",
                cp.step,
                cp.position,
                cp.movement + cp.service
            );
            // MtC is memoryless, so the checkpoint alone makes the resume
            // decision-exact.
            saved = Some(cp);
        }
    }
    let full = sim.finish();
    let elapsed = start.elapsed();
    println!(
        "\nFull run: {} steps in {:.2}s ({:.1}M steps/s)",
        full.steps,
        elapsed.as_secs_f64(),
        full.steps as f64 / elapsed.as_secs_f64() / 1e6
    );
    println!(
        "  total cost {:.0} (movement {:.0} + service {:.0}), max step used {:.3}",
        full.total_cost(),
        full.movement,
        full.service,
        full.max_step_used
    );
    println!(
        "  live state: {} bytes of StreamingSim — independent of T",
        std::mem::size_of::<StreamingSim<2, MoveToCenter<2>>>()
    );

    // Resume from the last checkpoint and replay only the tail.
    let cp = saved.expect("at least one checkpoint fired");
    println!("\nResuming from the {}-step checkpoint …", cp.step);
    stream.rewind();
    for _ in 0..cp.step {
        stream.next_step().expect("skipping replayed prefix");
    }
    let mut resumed = StreamingSim::resume(
        &stream.params(),
        MoveToCenter::new(),
        delta,
        ServingOrder::MoveFirst,
        &cp,
    );
    while let Some(step) = stream.next_step() {
        resumed.feed(&step);
    }
    let tail = resumed.finish();
    assert_eq!(tail.steps, full.steps);
    assert_eq!(tail.movement.to_bits(), full.movement.to_bits());
    assert_eq!(tail.service.to_bits(), full.service.to_bits());
    assert_eq!(tail.final_position, full.final_position);
    println!(
        "Resumed run reproduced the full totals bit-exactly: cost {:.0}, final position {}",
        tail.total_cost(),
        tail.final_position
    );
}

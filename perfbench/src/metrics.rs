//! Turns a run record into the benchmark's metrics: end-to-end metrics
//! from untraced passes, per-layer metrics from traced ones.

use crate::harness::RunRecord;
use crate::noise::proc_status;
use crate::stats::{median_pass_rate, tail_percentile};
use crate::trace::{self_times, Span};
use msp_analysis::obs::{Counter, Hist};
use msp_analysis::stats::Summary;
use std::collections::BTreeMap;

/// A named metric value with its unit.
pub type Metric = (&'static str, &'static str, f64);

/// End-to-end metric names and units, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("steps_per_s", "steps/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metric names and units, as `BENCHMARK.json` lists them. A
/// layer a workload never calls reads 0 on that workload.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("probe.observe_us_per_step", "us"),
    ("probe.window_ms", "ms"),
    ("probe.growth", "x"),
    ("probe.share", "ratio"),
    ("sim.feed_us_per_step", "us"),
    ("median.iters_per_step", "iters/step"),
    ("median.warm_share", "ratio"),
    ("service.resume_ratio", "ratio"),
    ("service.resume_us", "us"),
    ("service.resume_growth", "x"),
    ("service.self_ms_per_tick", "ms"),
    ("journal.appends_per_tick", "appends/tick"),
    ("journal.append_us", "us"),
    ("journal.fsync_us", "us"),
    ("journal.bytes_per_session", "B/session"),
    ("corpus.record_ms", "ms"),
    ("corpus.scan_ms", "ms"),
    ("corpus.sweep_ms", "ms"),
    ("trace.decode_us_per_step", "us"),
    ("trace.blocks_read_per_op", "blocks/op"),
    ("trace.bytes_per_step", "B/step"),
    ("gen.us_per_step", "us"),
    ("executor.dispatches_per_op", "dispatches/op"),
    ("residue_share", "ratio"),
    ("trace_overhead", "ratio"),
];

fn with_units(catalog: &[(&'static str, &'static str)], values: &[(&str, f64)]) -> Vec<Metric> {
    catalog
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(f64::NAN, |&(_, v)| v);
            (name, unit, value)
        })
        .collect()
}

/// The tail percentile `op_tail_ms` reports for a workload: fixed by the
/// length of its op list, so that even a single pass leaves ten ops
/// beyond it.
pub fn tail_pct(record: &RunRecord) -> u32 {
    tail_percentile(record.ops_per_pass)
}

pub fn end_to_end(record: &RunRecord) -> Vec<Metric> {
    let passes: Vec<(f64, f64)> = record
        .passes
        .iter()
        .filter(|p| !p.traced)
        .map(|p| (p.steps as f64, p.secs))
        .collect();
    let ms: Vec<f64> = record
        .ops
        .iter()
        .filter(|o| !o.traced)
        .map(|o| o.secs * 1e3)
        .collect();
    let peak_kb = proc_status("VmHWM").map_or(f64::NAN, |kb| kb as f64);
    with_units(
        &END_TO_END,
        &[
            ("steps_per_s", median_pass_rate(&passes)),
            ("op_p50_ms", Summary::quantile(&ms, 0.5)),
            (
                "op_tail_ms",
                Summary::quantile(&ms, tail_pct(record) as f64 / 100.0),
            ),
            ("setup_s", Summary::quantile(&record.setup_secs, 0.5)),
            ("peak_rss_mb", peak_kb / 1024.0),
        ],
    )
}

/// `num / den`, or 0 when there is nothing to divide.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median, or 0 for no values.
fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        Summary::quantile(values, 0.5)
    }
}

/// One layer's row of the traced table.
pub struct LayerRow {
    pub layer: &'static str,
    pub spans: usize,
    /// Summed duration of the layer's spans directly under an op span.
    pub busy_ns: u64,
}

/// Time of traced ops split by layer; what no layer span covers is the
/// residue.
pub struct LayerTable {
    pub rows: Vec<LayerRow>,
    pub op_ns: u64,
    pub residue_ns: u64,
}

pub fn layer_table(record: &RunRecord) -> LayerTable {
    let spans = record.tracer.spans();
    let selfs = self_times(spans);
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    let (mut op_ns, mut residue_ns) = (0, 0);
    for (s, &own) in spans.iter().zip(&selfs) {
        if s.name == "op" {
            op_ns += s.duration();
            residue_ns += own;
        } else if s.op.is_some() {
            let row = rows.entry(s.layer()).or_insert(LayerRow {
                layer: s.layer(),
                spans: 0,
                busy_ns: 0,
            });
            row.spans += 1;
            if s.parent.is_some_and(|p| spans[p].name == "op") {
                row.busy_ns += s.duration();
            }
        }
    }
    LayerTable {
        rows: rows.into_values().collect(),
        op_ns,
        residue_ns,
    }
}

pub fn per_layer(record: &RunRecord) -> Vec<Metric> {
    let spans = record.tracer.spans();
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let in_layer = |layer: &'static str| {
        spans
            .iter()
            .filter(move |s| s.layer() == layer && s.op.is_some())
    };
    let median_ms = |name: &'static str| {
        let v: Vec<f64> = named(name).map(|s| s.duration() as f64 / 1e6).collect();
        median_or_zero(&v)
    };
    let us_per_work = |spans: Vec<&Span>| {
        let ns: u64 = spans.iter().map(|s| s.duration()).sum();
        let work: u64 = spans.iter().map(|s| s.work).sum();
        ratio(ns as f64 / 1e3, work as f64)
    };

    let table = layer_table(record);
    let (op_ns, residue_ns) = (table.op_ns, table.residue_ns);
    let share = |layer: &str| {
        let busy = table
            .rows
            .iter()
            .find(|r| r.layer == layer)
            .map_or(0, |r| r.busy_ns);
        ratio(busy as f64, op_ns as f64)
    };

    let traced: Vec<_> = record.ops.iter().filter(|o| o.traced).collect();
    let untraced_ms: Vec<f64> = record
        .ops
        .iter()
        .filter(|o| !o.traced)
        .map(|o| o.secs)
        .collect();
    let traced_ms: Vec<f64> = traced.iter().map(|o| o.secs).collect();
    let total = |c: Counter| {
        traced
            .iter()
            .filter_map(|o| o.obs.as_ref())
            .map(|d| d.counter(c))
            .sum::<u64>() as f64
    };
    let hist = |h: Hist| {
        traced
            .iter()
            .filter_map(|o| o.obs.as_ref())
            .map(|d| d.hist(h))
            .fold((0.0, 0.0), |(c, s), (dc, ds)| {
                (c + dc as f64, s + ds as f64)
            })
    };
    let mean_us = |h: Hist| {
        let (count, sum) = hist(h);
        ratio(sum / 1e3, count)
    };
    let steps: f64 = traced.iter().map(|o| o.steps as f64).sum();
    let ops = traced.len() as f64;

    // A session's last block over its first block, median over sessions.
    let mut probe_by_op: BTreeMap<usize, u64> = BTreeMap::new();
    for s in in_layer("probe") {
        *probe_by_op.entry(s.op.expect("op span")).or_default() += s.duration();
    }
    let mut sessions: BTreeMap<(usize, usize), Vec<u64>> = BTreeMap::new();
    for (id, o) in record.ops.iter().enumerate() {
        if let Some(&ns) = probe_by_op.get(&id) {
            sessions.entry((o.pass, o.group)).or_default().push(ns);
        }
    }
    let growth: Vec<f64> = sessions
        .values()
        .filter(|blocks| blocks.len() >= 2)
        .map(|blocks| ratio(blocks[blocks.len() - 1] as f64, blocks[0] as f64))
        .collect();

    // Resume time in the last tenth of a pass's ticks over the first tenth.
    let mut resume_by_pass: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for o in &traced {
        if let Some(d) = &o.obs {
            resume_by_pass
                .entry(o.pass)
                .or_default()
                .push(d.hist(Hist::ServiceResumeNs).1);
        }
    }
    let resume_growth: Vec<f64> = resume_by_pass
        .values()
        .filter(|ticks| ticks.len() >= 10 && ticks.iter().any(|&ns| ns > 0))
        .map(|ticks| {
            let tenth = ticks.len() / 10;
            let first: u64 = ticks[..tenth].iter().sum();
            let last: u64 = ticks[ticks.len() - tenth..].iter().sum();
            ratio(last as f64, first as f64)
        })
        .collect();

    let pass_value = |key: &str| {
        let v: Vec<f64> = record
            .passes
            .iter()
            .filter(|p| p.traced)
            .filter_map(|p| p.values.iter().find(|(k, _)| *k == key).map(|&(_, v)| v))
            .collect();
        median_or_zero(&v)
    };

    let ticks = named("service.tick").count() as f64;
    let tick_ns: u64 = named("service.tick").map(|s| s.duration()).sum();
    let (_, resume_ns) = hist(Hist::ServiceResumeNs);
    let (_, append_ns) = hist(Hist::JournalAppendNs);

    with_units(
        &PER_LAYER,
        &[
            (
                "probe.observe_us_per_step",
                us_per_work(in_layer("probe").collect()),
            ),
            ("probe.window_ms", median_ms("probe.window")),
            ("probe.growth", median_or_zero(&growth)),
            ("probe.share", share("probe")),
            (
                "sim.feed_us_per_step",
                us_per_work(named("sim.feed").collect()),
            ),
            (
                "median.iters_per_step",
                ratio(total(Counter::MedianIterations), steps),
            ),
            (
                "median.warm_share",
                ratio(
                    total(Counter::MedianWarmStarts),
                    total(Counter::MedianSolves),
                ),
            ),
            (
                "service.resume_ratio",
                ratio(
                    total(Counter::ServiceResumes),
                    hist(Hist::ServiceAdvanceSteps).0,
                ),
            ),
            ("service.resume_us", mean_us(Hist::ServiceResumeNs)),
            ("service.resume_growth", median_or_zero(&resume_growth)),
            (
                "service.self_ms_per_tick",
                ratio((tick_ns as f64 - resume_ns - append_ns) / 1e6, ticks),
            ),
            (
                "journal.appends_per_tick",
                ratio(total(Counter::JournalAppends), ticks),
            ),
            ("journal.append_us", mean_us(Hist::JournalAppendNs)),
            ("journal.fsync_us", mean_us(Hist::JournalFsyncNs)),
            (
                "journal.bytes_per_session",
                pass_value("journal.bytes_per_session"),
            ),
            ("corpus.record_ms", median_ms("corpus.record")),
            ("corpus.scan_ms", median_ms("corpus.scan")),
            ("corpus.sweep_ms", median_ms("corpus.sweep")),
            (
                "trace.decode_us_per_step",
                us_per_work(named("corpus.scan").collect()),
            ),
            (
                "trace.blocks_read_per_op",
                ratio(total(Counter::TraceBlocksRead), ops),
            ),
            ("trace.bytes_per_step", pass_value("trace.bytes_per_step")),
            (
                "gen.us_per_step",
                us_per_work(spans.iter().filter(|s| s.layer() == "gen").collect()),
            ),
            (
                "executor.dispatches_per_op",
                ratio(total(Counter::ExecutorDispatches), ops),
            ),
            ("residue_share", ratio(residue_ns as f64, op_ns as f64)),
            (
                "trace_overhead",
                Summary::quantile(&traced_ms, 0.5) / Summary::quantile(&untraced_ms, 0.5) - 1.0,
            ),
        ],
    )
}

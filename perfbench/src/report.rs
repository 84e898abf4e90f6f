//! Metric sets and the result line.

use std::fmt::Write as _;

/// Every per-layer metric the traced mode reports, with its unit. A traced
/// run prints all of them; a layer the workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("analysis.ir_ms", "ms"),
    ("analysis.normal_ms", "ms"),
    ("analysis.rcg_ms", "ms"),
    ("analysis.bank_ms", "ms"),
    ("analysis.pressure_ms", "ms"),
    ("analysis.copy_ms", "ms"),
    ("analysis.sched_ms", "ms"),
    ("analysis.expansion_ms", "ms"),
    ("analysis.joint_ms", "ms"),
    ("analysis.gate_ms", "ms"),
    ("analysis.error_diags", "count"),
    ("regalloc.allocate_ms", "ms"),
    ("regalloc.spill_rounds", "count"),
    ("regalloc.spills", "count"),
    ("ddg.front_end_ms", "ms"),
    ("ddg.clustered_ms", "ms"),
    ("sched.ideal_ms", "ms"),
    ("sched.clustered_ms", "ms"),
    ("sched.calls", "count"),
    ("core.rcg_ms", "ms"),
    ("core.assign_ms", "ms"),
    ("core.copies_ms", "ms"),
    ("core.kernel_copies", "count"),
    ("exact.solve_ms", "ms"),
    ("exact.nodes_expanded", "count"),
    ("exact.pruned_bound", "count"),
    ("exact.dominance_assigns", "count"),
    ("exact.closed", "count"),
    ("joint.solve_ms", "ms"),
    ("joint.bank_nodes", "count"),
    ("joint.sched_nodes", "count"),
    ("joint.propagations", "count"),
    ("joint.pruned_propagation", "count"),
    ("joint.pruned_bound", "count"),
    ("joint.nogood_hits", "count"),
    ("joint.nogoods_recorded", "count"),
    ("joint.closed", "count"),
    ("sim.check_ms", "ms"),
    ("sim.checked", "count"),
    ("sim.failures", "count"),
    ("normal.canon_ms", "ms"),
    ("normal.canon_calls", "count"),
    ("pipeline.run_loop_cold_ms", "ms"),
    ("serve.json.parse_ms", "ms"),
    ("serve.envelope.decode_ms", "ms"),
    ("serve.hash.key_ms", "ms"),
    ("serve.cache.mem_hits", "count"),
    ("serve.cache.disk_hits", "count"),
    ("serve.cache.canon_hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.cache.hit_ratio", "share"),
    ("serve.cache.flush_ms", "ms"),
    ("serve.compile.warm_ms", "ms"),
    ("serve.compile.variant_ms", "ms"),
    ("serve.compile.cold_ms", "ms"),
    ("serve.compile.batch_ms", "ms"),
    ("serve.compile.heavy_ms", "ms"),
    ("serve.wire.warm_ms", "ms"),
    ("serve.wire.variant_ms", "ms"),
    ("serve.wire.cold_ms", "ms"),
    ("serve.wire.batch_ms", "ms"),
    ("serve.wire.heavy_ms", "ms"),
    ("serve.reactor.overhead_ms", "ms"),
    ("governor.queue_wait_p50_ms", "ms"),
    ("governor.queue_wait_p99_ms", "ms"),
    ("governor.sheds", "count"),
    ("governor.rejects", "count"),
    ("pipeline.reconcile_pct", "%"),
    ("pipeline.trace_overhead_pct", "%"),
    ("gen.late_p99_ms", "ms"),
    ("gen.late_share", "share"),
];

/// Every end-to-end metric an untraced run reports, with its unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("max_rate_per_s", "1/s"),
    ("mean_norm_ii", "%"),
    ("copies_per_loop", "copies"),
    ("closed_share", "share"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MiB"),
];

/// Named metrics in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|m| m.0 == name) {
            Some(m) => m.1 = value,
            None => self.0.push((name.to_string(), value, unit)),
        }
    }
    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|m| m.0 == name)
    }
}

/// Add every per-layer metric the run did not reach, as 0, in list order.
pub fn zero_fill(m: &mut Metrics) {
    for &(name, unit) in PER_LAYER {
        if !m.has(name) {
            m.put(name, 0.0, unit);
        }
    }
    m.0.sort_by_key(|(name, _, _)| PER_LAYER.iter().position(|p| p.0 == name));
}

/// What one run found.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// False when the load generator itself fell behind (the run is invalid,
    /// not a system failure).
    pub valid: bool,
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl Outcome {
    /// Print the notes, every metric by name and unit, and the JSON result
    /// line (always last).
    pub fn print(&self, workload: &str, expected: &[(&str, &str)]) {
        for n in &self.notes {
            println!("# {n}");
        }
        for (name, value, unit) in &self.metrics.0 {
            println!("{workload} {name} = {value} {unit}");
        }
        for &(name, unit) in expected {
            let got = self.metrics.0.iter().find(|m| m.0 == name);
            assert_eq!(
                got.map(|m| m.2),
                Some(unit),
                "metric {name} missing or in the wrong unit"
            );
        }
        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            );
        }
        line.push_str("}}");
        println!("{line}");
    }
}

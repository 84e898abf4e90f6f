//! The closed-loop workloads: one caller thread compiling a fixed op list.
//!
//! * `corpus-greedy` — the stratified 211-loop corpus × the six paper
//!   machines under the default greedy `PipelineConfig` (what `repro` runs);
//! * `solver-closed` — the ≤24-vreg solver slice × {2×8, 4×4, 8×2}-embedded
//!   under the exact and the joint partitioner, with budgets far above the
//!   slowest solve so no result depends on the clock.
//!
//! The timed window runs whole cycles (a pass over the op list, then
//! passes over its light ops), as many as end closest to `seconds`; every
//! op is one `vliw_pipeline::run_loop` call on the calling thread. Outputs are checked after the window against
//! `run_loop` itself with simulation on; the traced mode instead rebuilds
//! each op from the public layer calls under spans.

use crate::rebuild::{run_loop_traced, timed_analyzer, Rebuilt, PASS_SPANS};
use crate::report::{Metrics, Outcome};
use crate::trace::{self, Totals};
use crate::util::{beyond, median, ms, peak_rss_mb, percentile};
use std::hint::black_box;
use std::time::{Duration, Instant};
use vliw_analysis::Severity;
use vliw_ir::Loop;
use vliw_machine::MachineDesc;
use vliw_pipeline::{run_loop, LoopResult, PartitionerKind, PipelineConfig};
use vliw_serve::CompileResult;

/// Solver budget: far above the slowest solve in the slice (about half a
/// second), so a result never depends on the clock.
pub const SOLVER_BUDGET_MS: u64 = 20_000;
/// Ops whose first-pass latency is at most this are light.
pub const LIGHT_MS: f64 = 100.0;
/// Extra passes over the light ops per pass over every op.
pub const LIGHT_PASSES: usize = 2;

fn make_inputs(workload: &str, seed: u64) -> Inputs {
    match workload {
        "corpus-greedy" => Inputs::corpus_greedy(seed),
        _ => Inputs::solver_closed(seed),
    }
}

/// Time one input generation, in seconds.
fn time_set_up(workload: &str, seed: u64) -> (Inputs, f64) {
    let t = Instant::now();
    let inputs = black_box(make_inputs(workload, seed));
    (inputs, t.elapsed().as_secs_f64())
}

/// A closed-loop workload's fixed parameters.
pub struct Spec {
    pub name: &'static str,
    /// Tail percentile (fixed per workload).
    pub tail_pct: f64,
    /// Latency limit an op must meet to count towards `max_rate_per_s`.
    pub limit_ms: f64,
}

pub const CORPUS_GREEDY: Spec = Spec {
    name: "corpus-greedy",
    tail_pct: 99.0,
    limit_ms: 25.0,
};

pub const SOLVER_CLOSED: Spec = Spec {
    name: "solver-closed",
    tail_pct: 98.0,
    limit_ms: 2_000.0,
};

/// The inputs of one closed-loop workload.
pub struct Inputs {
    pub loops: Vec<Loop>,
    pub machines: Vec<MachineDesc>,
    pub configs: Vec<PipelineConfig>,
    /// `(loop, machine, config)` indices, in pass order.
    pub ops: Vec<(usize, usize, usize)>,
}

impl Inputs {
    fn grid(loops: Vec<Loop>, machines: Vec<MachineDesc>, configs: Vec<PipelineConfig>) -> Self {
        let mut ops = Vec::new();
        for c in 0..configs.len() {
            for l in 0..loops.len() {
                for m in 0..machines.len() {
                    ops.push((l, m, c));
                }
            }
        }
        Inputs {
            loops,
            machines,
            configs,
            ops,
        }
    }

    pub fn corpus_greedy(seed: u64) -> Self {
        let loops = crate::inputs::corpus(
            seed,
            crate::inputs::CORPUS_LOOPS,
            crate::inputs::CORPUS_TRIPS,
        );
        Inputs::grid(
            loops,
            vliw_pipeline::paper_machines(),
            vec![PipelineConfig::default()],
        )
    }

    pub fn solver_closed(seed: u64) -> Self {
        let machines = [(2, 8), (4, 4), (8, 2)]
            .into_iter()
            .map(|(c, f)| MachineDesc::embedded(c, f))
            .collect();
        let configs = [
            PartitionerKind::Exact {
                budget_ms: SOLVER_BUDGET_MS,
            },
            PartitionerKind::Joint {
                budget_ms: SOLVER_BUDGET_MS,
            },
        ]
        .into_iter()
        .map(|partitioner| PipelineConfig {
            partitioner,
            ..Default::default()
        })
        .collect();
        Inputs::grid(crate::inputs::solver_slice(seed), machines, configs)
    }

    fn op(&self, i: usize) -> (&Loop, &MachineDesc, &PipelineConfig) {
        let (l, m, c) = self.ops[i];
        (&self.loops[l], &self.machines[m], &self.configs[c])
    }
}

/// A result in comparable form (every `LoopResult` field).
fn comparable(r: &LoopResult) -> CompileResult {
    CompileResult::from_loop_result(String::new(), r)
}

/// One timed op: its index, latency in ms and result.
type Sample = (usize, f64, LoopResult);

/// One untimed-by-layer pass: every op of `plan` through `run_loop`.
fn run_pass(inputs: &Inputs, plan: &[usize], samples: &mut Vec<Sample>) -> Duration {
    let start = Instant::now();
    for &i in plan {
        let (body, machine, cfg) = inputs.op(i);
        let t = Instant::now();
        let r = black_box(run_loop(black_box(body), machine, cfg));
        samples.push((i, ms(t.elapsed()), r));
    }
    start.elapsed()
}

/// Exact per-layer counts of one pass; they must repeat between passes.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts {
    pub error_diags: u64,
    pub spill_rounds: u64,
    pub spills: u64,
    pub sched_calls: u64,
    pub kernel_copies: u64,
    pub exact: [u64; 4],
    pub joint: [u64; 8],
    pub norm_ii_sum: f64,
    pub closed: u64,
    /// Search nodes of each op's solve (exact nodes expanded, or joint bank
    /// plus schedule nodes), in op order.
    pub op_nodes: Vec<u64>,
}

impl Counts {
    fn add(&mut self, rb: &Rebuilt) {
        let r = &rb.result;
        self.error_diags += error_diags(r) as u64;
        self.spill_rounds += r.spill_rounds as u64;
        self.spills += r.spills as u64;
        self.sched_calls += rb.sched_calls;
        self.kernel_copies += r.n_copies as u64;
        self.norm_ii_sum += r.normalized;
        self.closed += u64::from(!r.partitioner_truncated());
        self.op_nodes.push(
            rb.exact.map_or(0, |s| s.nodes_expanded)
                + rb.joint.map_or(0, |s| s.bank_nodes + s.sched_nodes),
        );
        if let (Some(s), Some(e)) = (rb.exact, r.exact) {
            let add = [
                s.nodes_expanded,
                s.pruned_bound,
                s.dominance_assigns,
                u64::from(e.optimal),
            ];
            for (a, b) in self.exact.iter_mut().zip(add) {
                *a += b;
            }
        }
        if let (Some(s), Some(j)) = (rb.joint, r.joint) {
            let add = [
                s.bank_nodes,
                s.sched_nodes,
                s.propagations,
                s.pruned_propagation,
                s.pruned_bound,
                s.nogood_hits,
                s.nogoods_recorded,
                u64::from(j.optimal),
            ];
            for (a, b) in self.joint.iter_mut().zip(add) {
                *a += b;
            }
        }
    }
}

fn error_diags(r: &LoopResult) -> usize {
    r.diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count()
}

/// What is wrong with the claims a result makes: Error-level lints, a
/// closed joint solve whose bound does not meet its II or whose II exceeds
/// greedy, an exact cost above the greedy seed's.
fn claim_problems(r: &LoopResult, greedy_cost: Option<f64>) -> Vec<String> {
    let mut wrong = Vec::new();
    if error_diags(r) > 0 {
        wrong.push(format!("{} Error-level lint diagnostics", error_diags(r)));
    }
    if let Some(j) = r.joint {
        if j.optimal && !(j.lower_bound_ii == j.ii && j.ii <= j.greedy_ii) {
            wrong.push(format!("joint claim broken: {j:?}"));
        }
    }
    if let (Some(e), Some(g)) = (r.exact, greedy_cost) {
        if e.cost > g + 1e-9 {
            wrong.push(format!("exact cost {} above greedy {g}", e.cost));
        }
    }
    wrong
}

/// RCG cost of the greedy partition the exact search is seeded with.
fn greedy_seed_cost(body: &Loop, machine: &MachineDesc, cfg: &PipelineConfig) -> f64 {
    let ctx = vliw_core::LoopContext::new(body, machine);
    let g = vliw_core::build_rcg(body, &ctx.ideal, &ctx.slack, &cfg.partition);
    let caps: Vec<usize> = machine.clusters.iter().map(|c| c.n_fus).collect();
    let seed = vliw_core::assign_banks_caps(&g, &caps, &cfg.partition);
    vliw_exact::partition_cost(&g, &seed, 0.0)
}

/// Check every op of an untraced pass against `run_loop` itself: the same
/// op with simulation on must reproduce the result and simulate equal to
/// the scalar reference, and the result's claims must hold.
fn check_pass(inputs: &Inputs, timed: &[&LoopResult]) -> Vec<Vec<String>> {
    (0..inputs.ops.len())
        .map(|i| {
            let (body, machine, cfg) = inputs.op(i);
            let simulated = PipelineConfig {
                simulate: true,
                ..cfg.clone()
            };
            let mut checked = run_loop(body, machine, &simulated);
            let mut wrong = Vec::new();
            if checked.sim_ok != Some(true) {
                wrong.push("simulation differs from the scalar reference".to_string());
            }
            checked.sim_ok = None;
            if comparable(&checked) != comparable(timed[i]) {
                wrong.push("result differs when compiled again with simulation on".to_string());
            }
            let greedy = timed[i].exact.map(|_| greedy_seed_cost(body, machine, cfg));
            wrong.extend(claim_problems(timed[i], greedy));
            wrong
        })
        .collect()
}

/// Check every op of a traced pass: rebuild it under spans, require the
/// rebuild to equal `run_loop`'s result, simulate the rebuilt code and audit
/// the claims. Returns per-op verdicts plus the pass's exact counts.
fn check_traced_pass(
    inputs: &Inputs,
    timed: &[LoopResult],
    analyzer: &vliw_analysis::Analyzer,
) -> (Vec<Vec<String>>, Counts) {
    let mut counts = Counts::default();
    let verdicts = (0..inputs.ops.len())
        .map(|i| {
            let (body, machine, cfg) = inputs.op(i);
            trace::set_op(i as u32);
            let rb = run_loop_traced(body, machine, cfg, analyzer);
            counts.add(&rb);
            let mut wrong = Vec::new();
            if comparable(&timed[i]) != comparable(&rb.result) {
                wrong.push("rebuilt pipeline differs from run_loop".to_string());
            }
            let failures = trace::span("sim.check", || {
                vliw_sim::equivalence_failures(&rb.body, &rb.sched, &machine.latencies)
            });
            if let Some(f) = failures.first() {
                wrong.push(format!(
                    "simulation differs from the scalar reference: {f:?}"
                ));
            }
            wrong.extend(claim_problems(&timed[i], rb.greedy_cost));
            wrong
        })
        .collect();
    (verdicts, counts)
}

/// Run one closed-loop workload and produce its report.
pub fn run(spec: &Spec, seed: u64, seconds: u64, traced: bool) -> Outcome {
    // Set-up is input generation, about 2 ms — short enough that the host's
    // speed at that moment decides it. So it is repeated after every cycle
    // of passes, and `setup_s` is the minimum over the run: the generation is
    // deterministic and host interference only ever adds time.
    let (inputs, first_setup) = time_set_up(spec.name, seed);
    let mut setups = vec![first_setup];
    let n_ops = inputs.ops.len();
    eprintln!(
        "{}: {} loops x {} machines x {} configs = {n_ops} ops per pass",
        spec.name,
        inputs.loops.len(),
        inputs.machines.len(),
        inputs.configs.len()
    );

    if traced {
        return run_traced(spec, &inputs, seconds, first_setup);
    }

    // A cycle is one pass over every op, then LIGHT_PASSES passes over the
    // light ops (first-pass latency at most LIGHT_MS): the cheap ops that
    // set the median get several times the samples of the few heavy solves
    // that take most of a pass. Whole cycles only, as many as end closest
    // to `seconds`. Peak memory is read after the first pass, before the
    // stored results of later passes (kept for the checks) add to it.
    let budget = Duration::from_secs(seconds);
    let all: Vec<usize> = (0..n_ops).collect();
    let mut light = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();
    let (mut pass_s, mut cycle_s) = (Vec::new(), Vec::new());
    let window = Instant::now();
    let mut rss = 0.0;
    while cycle_s.is_empty()
        || window.elapsed().as_secs_f64() + 0.5 * median(&cycle_s) < budget.as_secs_f64()
    {
        let t = Instant::now();
        pass_s.push(run_pass(&inputs, &all, &mut samples).as_secs_f64());
        if pass_s.len() == 1 {
            rss = peak_rss_mb("self").unwrap_or(0.0);
            light = samples
                .iter()
                .filter(|s| s.1 <= LIGHT_MS)
                .map(|s| s.0)
                .collect();
        }
        for _ in 0..LIGHT_PASSES {
            run_pass(&inputs, &light, &mut samples);
        }
        cycle_s.push(t.elapsed().as_secs_f64());
        setups.push(time_set_up(spec.name, seed).1);
    }
    let window_s = window.elapsed().as_secs_f64();

    // Output checks, outside the timed window.
    let first: Vec<&LoopResult> = samples[..n_ops].iter().map(|s| &s.2).collect();
    let verdicts = check_pass(&inputs, &first);
    let mut failed = 0usize;
    let mut first_wrong = None;
    for (k, (op, _, r)) in samples.iter().enumerate() {
        let mut wrong = verdicts[*op].clone();
        if k >= n_ops && comparable(r) != comparable(first[*op]) {
            wrong.push("result changed between passes".to_string());
        }
        if !wrong.is_empty() {
            failed += 1;
            first_wrong.get_or_insert_with(|| format!("op {op}: {}", wrong.join("; ")));
        }
    }
    if let Some(w) = &first_wrong {
        eprintln!("{}: wrong output: {w}", spec.name);
    }

    // An op's latency is its minimum over the run's samples: the work is
    // deterministic and host interference only ever adds time, so the
    // minimum is the steadiest estimate of what the op costs.
    let mut op_ms = vec![f64::INFINITY; n_ops];
    for &(op, l, _) in &samples {
        op_ms[op] = op_ms[op].min(l);
    }
    let total_s = op_ms.iter().sum::<f64>() / 1e3;
    let mut sorted = op_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let within = op_ms.iter().filter(|&&l| l <= spec.limit_ms).count();
    let rates: Vec<f64> = pass_s.iter().map(|s| (n_ops as f64 / s).round()).collect();
    let attempted = samples.len();
    let mut m = Metrics::default();
    m.put(
        "setup_s",
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        "s",
    );
    m.put("ops_per_s", n_ops as f64 / total_s, "1/s");
    m.put("latency_p50_ms", percentile(&sorted, 50.0), "ms");
    m.put("latency_tail_ms", percentile(&sorted, spec.tail_pct), "ms");
    m.put("max_rate_per_s", within as f64 / total_s, "1/s");
    m.put(
        "mean_norm_ii",
        first.iter().map(|r| r.normalized).sum::<f64>() / n_ops as f64,
        "%",
    );
    m.put(
        "copies_per_loop",
        first.iter().map(|r| r.n_copies as f64).sum::<f64>() / n_ops as f64,
        "copies",
    );
    m.put(
        "closed_share",
        first.iter().filter(|r| !r.partitioner_truncated()).count() as f64 / n_ops as f64,
        "share",
    );
    m.put("ok_share", 1.0 - failed as f64 / attempted as f64, "share");
    m.put("peak_rss_mb", rss, "MiB");
    let notes = vec![
        format!(
            "window {window_s:.2} s: {} cycles of a pass over {n_ops} ops and {LIGHT_PASSES} over {} light ops \
             ({attempted} timed); whole-pass rates {rates:?}/s",
            pass_s.len(),
            light.len(),
        ),
        format!(
            "latency_tail_ms is p{} over {n_ops} per-op latencies ({} beyond); \
             max_rate_per_s counts the {within} ops within {} ms",
            spec.tail_pct,
            beyond(n_ops, spec.tail_pct),
            spec.limit_ms
        ),
    ];
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
        notes,
        valid: true,
    }
}

fn counts_line(c: &Counts, n_ops: usize) -> String {
    format!(
        "exact counts per pass: lint_errors={} spill_rounds={} spills={} sched_calls={} kernel_copies={} \
         exact[nodes,pruned,dominance,closed]={:?} joint[bank,sched,prop,pruned_prop,pruned_bound,nogood_hits,nogoods,closed]={:?} \
         mean_norm_ii={:.6} closed_share={:.6}",
        c.error_diags,
        c.spill_rounds,
        c.spills,
        c.sched_calls,
        c.kernel_copies,
        c.exact,
        c.joint,
        c.norm_ii_sum / n_ops as f64,
        c.closed as f64 / n_ops as f64
    )
}

/// The traced mode: untraced `run_loop` passes alternate with traced
/// rebuilt passes; the per-layer split comes from the traced passes, the
/// overhead from comparing the two.
fn run_traced(spec: &Spec, inputs: &Inputs, seconds: u64, setup_s: f64) -> Outcome {
    let n_ops = inputs.ops.len();
    let analyzer = timed_analyzer();
    let budget = Duration::from_secs(seconds);
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut spans = Vec::new();
    let mut all_counts: Vec<Counts> = Vec::new();
    let mut failed = 0usize;
    let mut attempted = 0usize;
    let all: Vec<usize> = (0..n_ops).collect();
    let window = Instant::now();
    while window.elapsed() < budget || all_counts.len() < 2 {
        let mut plain = Vec::new();
        plain_s.push(run_pass(inputs, &all, &mut plain).as_secs_f64());
        let plain: Vec<LoopResult> = plain.into_iter().map(|s| s.2).collect();

        trace::set_enabled(true);
        let t = Instant::now();
        let (verdicts, counts) = check_traced_pass(inputs, &plain, &analyzer);
        traced_s.push(t.elapsed().as_secs_f64());
        trace::set_enabled(false);
        let mut pass_spans = trace::take();
        // Parent indices are pass-local; shift them to the run-wide ids.
        let base = spans.len() as u32;
        for s in &mut pass_spans {
            s.parent = s.parent.map(|p| p + base);
        }
        spans.extend(pass_spans);
        attempted += n_ops;
        failed += verdicts.iter().filter(|v| !v.is_empty()).count();
        all_counts.push(counts);
    }
    let totals = Totals::of(&spans);
    let repeat = all_counts.windows(2).all(|w| w[0] == w[1]);
    let counts = all_counts[0].clone();
    let passes = traced_s.len() as f64;
    let traced_total: f64 = traced_s.iter().sum::<f64>() * 1e3;
    // The check work (simulation) is inside the traced pass; it is its own
    // layer, so reconcile covers it like any other span.
    let reconcile = 100.0 * (traced_total - totals.top_level_ms) / traced_total;
    let per_op = |name: &str| totals.self_of(name) / (passes * n_ops as f64);
    let sim_ms = totals.incl_of("sim.check");
    let overhead = 100.0
        * ((traced_total - sim_ms)
            / traced_s.len() as f64
            / (plain_s.iter().sum::<f64>() * 1e3 / plain_s.len() as f64)
            - 1.0);

    let mut m = Metrics::default();
    for name in PASS_SPANS {
        m.put(&format!("{name}_ms"), per_op(name), "ms");
    }
    m.put(
        "analysis.gate_ms",
        totals.incl_of("analysis.gate") / (passes * n_ops as f64),
        "ms",
    );
    m.put("analysis.error_diags", counts.error_diags as f64, "count");
    m.put(
        "regalloc.allocate_ms",
        per_op("regalloc.allocate") + per_op("regalloc.spill"),
        "ms",
    );
    m.put("regalloc.spill_rounds", counts.spill_rounds as f64, "count");
    m.put("regalloc.spills", counts.spills as f64, "count");
    m.put("ddg.front_end_ms", per_op("ddg.front_end"), "ms");
    m.put("ddg.clustered_ms", per_op("ddg.clustered"), "ms");
    m.put("sched.ideal_ms", per_op("sched.ideal"), "ms");
    m.put("sched.clustered_ms", per_op("sched.clustered"), "ms");
    m.put("sched.calls", counts.sched_calls as f64, "count");
    m.put("core.rcg_ms", per_op("core.rcg"), "ms");
    m.put("core.assign_ms", per_op("core.assign"), "ms");
    m.put("core.copies_ms", per_op("core.copies"), "ms");
    m.put("core.kernel_copies", counts.kernel_copies as f64, "count");
    m.put("exact.solve_ms", per_op("exact.solve"), "ms");
    for (k, v) in [
        "nodes_expanded",
        "pruned_bound",
        "dominance_assigns",
        "closed",
    ]
    .iter()
    .zip(counts.exact)
    {
        m.put(&format!("exact.{k}"), v as f64, "count");
    }
    m.put("joint.solve_ms", per_op("joint.solve"), "ms");
    for (k, v) in [
        "bank_nodes",
        "sched_nodes",
        "propagations",
        "pruned_propagation",
        "pruned_bound",
        "nogood_hits",
        "nogoods_recorded",
        "closed",
    ]
    .iter()
    .zip(counts.joint)
    {
        m.put(&format!("joint.{k}"), v as f64, "count");
    }
    m.put("sim.check_ms", sim_ms / (passes * n_ops as f64), "ms");
    m.put("sim.checked", n_ops as f64, "count");
    m.put("sim.failures", failed as f64 / passes, "count");
    m.put("pipeline.reconcile_pct", reconcile, "%");
    m.put("pipeline.trace_overhead_pct", overhead, "%");
    crate::report::zero_fill(&mut m);

    let path = crate::util::out_dir().join(format!("trace-{}.jsonl", spec.name));
    if let Err(e) = trace::write_jsonl(&path, &spans) {
        eprintln!("{}: could not write {}: {e}", spec.name, path.display());
    }
    let mut notes = vec![
        format!(
            "traced {} passes ({:.2} s traced, {:.2} s plain); set-up {setup_s:.4} s; spans in {}",
            traced_s.len(),
            traced_total / 1e3,
            plain_s.iter().sum::<f64>(),
            path.display()
        ),
        counts_line(&counts, n_ops),
        format!("exact counts repeat across traced passes: {repeat}"),
    ];
    let gate_ms = totals.incl_of("analysis.gate");
    let op_ms = traced_total - sim_ms;
    notes.push(format!(
        "NormalFormPass share of a compile: {:.1}% (gates {:.1}%)",
        100.0 * totals.self_of("analysis.normal") / op_ms,
        100.0 * gate_ms / op_ms
    ));
    notes.extend(heaviest_solver_classes(inputs, &spans, &counts));
    Outcome {
        correct: failed == 0 && repeat,
        attempted,
        failed,
        metrics: m,
        notes,
        valid: true,
    }
}

/// The three op classes (loop family and unroll, machine, partitioner) with
/// the most solver time, from the traced spans: ops, median solve time and
/// search nodes per solve.
fn heaviest_solver_classes(inputs: &Inputs, spans: &[trace::Span], counts: &Counts) -> Vec<String> {
    use std::collections::BTreeMap;
    let mut per_op: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.name == "exact.solve" || s.name == "joint.solve")
    {
        per_op
            .entry(s.op)
            .or_default()
            .push((s.end_ns - s.start_ns) as f64 / 1e6);
    }
    let mut classes: BTreeMap<String, (Vec<f64>, u64)> = BTreeMap::new();
    for (&op, times) in &per_op {
        let (l, m, c) = inputs.ops[op as usize];
        let (body, machine) = (&inputs.loops[l], &inputs.machines[m]);
        let key = format!(
            "{} ({} vregs) on {}x{} {:?}",
            body.name
                .rsplit_once('_')
                .map_or(body.name.as_str(), |x| x.0),
            body.n_vregs(),
            machine.n_clusters(),
            machine.clusters[0].n_fus,
            inputs.configs[c].partitioner
        );
        let e = classes.entry(key).or_default();
        e.0.push(median(times));
        e.1 += counts.op_nodes[op as usize];
    }
    let mut ranked: Vec<(String, f64, usize, f64, u64)> = classes
        .into_iter()
        .map(|(k, (t, nodes))| {
            (
                k,
                t.iter().sum::<f64>(),
                t.len(),
                median(&t),
                nodes / t.len() as u64,
            )
        })
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    ranked
        .into_iter()
        .take(3)
        .map(|(k, total, n, med, nodes)| {
            format!("solver class {k}: {n} ops, {total:.1} ms per pass, median {med:.2} ms and {nodes} nodes per solve")
        })
        .collect()
}

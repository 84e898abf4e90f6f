//! Scheduler perf baseline runner.
//!
//! Times the scheduler-core hot kernels in their old (dense / recompute-
//! everything) and new (sparse / shared-context) formulations and the
//! paper's passes around them (RCG build, colouring, simulation) on
//! representative loops, plus the corpus pipeline stage by stage, and
//! writes the results as JSON — the
//! checked-in `BENCH_scheduler.json` at the repo root. Rerun with
//!
//! ```text
//! cargo run --release -p vliw-bench --bin bench_scheduler
//! ```
//!
//! No external deps: timing via `std::time::Instant`, JSON by hand.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use vliw_analysis::bank_lints::PressurePass;
use vliw_analysis::rcg_lints::RcgPass;
use vliw_analysis::{Artifacts, LintPass, NormalFormPass, Report};
use vliw_bench::{full_corpus, rep_ilp_loop, rep_recurrence_loop};
use vliw_core::{
    assign_banks_caps, build_rcg, insert_copies, score_config, score_config_ctx, LoopContext,
    PartitionConfig,
};
use vliw_ddg::{build_ddg, compute_slack, rec_ii, rec_ii_dense};
use vliw_ir::Loop;
use vliw_machine::MachineDesc;
use vliw_regalloc::allocate;
use vliw_sched::{
    expand, schedule_loop, schedule_loop_with, ImsConfig, SchedContext, SchedProblem,
};
use vliw_sim::{check_equivalence, run_reference};

/// Nanoseconds per iteration: warm up, then repeat until ≥25 ms of samples.
fn bench_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..3 {
        black_box(f());
    }
    let start = Instant::now();
    let mut reps = 0u64;
    loop {
        black_box(f());
        reps += 1;
        let el = start.elapsed();
        if el.as_millis() >= 25 || reps >= 2_000_000 {
            return el.as_secs_f64() * 1e9 / reps as f64;
        }
    }
}

struct Json {
    buf: String,
    depth: usize,
    first: bool,
}

impl Json {
    fn new() -> Self {
        Json {
            buf: "{\n".into(),
            depth: 1,
            first: true,
        }
    }
    fn pad(&mut self) {
        if !self.first {
            self.buf.push_str(",\n");
        }
        self.first = false;
        for _ in 0..self.depth {
            self.buf.push_str("  ");
        }
    }
    fn num(&mut self, key: &str, v: f64) {
        self.pad();
        let _ = write!(self.buf, "\"{key}\": {v:.1}");
    }
    fn share(&mut self, key: &str, v: f64) {
        self.pad();
        if v.is_finite() {
            let _ = write!(self.buf, "\"{key}\": {v:.4}");
        } else {
            let _ = write!(self.buf, "\"{key}\": null");
        }
    }
    fn int(&mut self, key: &str, v: u64) {
        self.pad();
        let _ = write!(self.buf, "\"{key}\": {v}");
    }
    fn str(&mut self, key: &str, v: &str) {
        self.pad();
        let _ = write!(self.buf, "\"{key}\": \"{v}\"");
    }
    fn open(&mut self, key: &str) {
        self.pad();
        let _ = write!(self.buf, "\"{key}\": {{");
        self.buf.push('\n');
        self.depth += 1;
        self.first = true;
    }
    fn close(&mut self) {
        self.buf.push('\n');
        self.depth -= 1;
        for _ in 0..self.depth {
            self.buf.push_str("  ");
        }
        self.buf.push('}');
        self.first = false;
    }
    fn finish(mut self) -> String {
        while self.depth > 1 {
            self.close();
        }
        self.buf.push_str("\n}\n");
        self.buf
    }
}

fn micro_section(j: &mut Json, tag: &str, body: &Loop, machine: &MachineDesc) {
    let ideal_m =
        MachineDesc::monolithic(machine.issue_width()).with_latencies(machine.latencies.clone());
    let ddg = build_ddg(body, &machine.latencies);
    let min_ii = rec_ii(&ddg);

    j.open(tag);
    j.int("n_ops", body.n_ops() as u64);
    j.int("n_edges", ddg.edges().len() as u64);
    j.int("rec_ii", min_ii as u64);

    j.num(
        "build_ddg_ns",
        bench_ns(|| build_ddg(body, &machine.latencies)),
    );

    // RecII: O(V·E·log) Bellman–Ford binary search vs the old O(n³·log)
    // Floyd–Warshall formulation.
    let sparse = bench_ns(|| rec_ii(&ddg));
    let dense = bench_ns(|| rec_ii_dense(&ddg));
    j.num("rec_ii_sparse_ns", sparse);
    j.num("rec_ii_dense_ns", dense);
    j.num("rec_ii_speedup", dense / sparse);

    // Per-II feasibility probe: what try_ii pays per candidate II.
    let mut scratch = Vec::new();
    let feas = bench_ns(|| ddg.is_feasible_with(min_ii, &mut scratch));
    let paths = bench_ns(|| ddg.longest_paths(min_ii).is_some());
    j.num("is_feasible_ns", feas);
    j.num("longest_paths_ns", paths);
    j.num("feasibility_speedup", paths / feas);

    j.num(
        "slack_ns",
        bench_ns(|| compute_slack(&ddg, |op| machine.latencies.of(body.op(op).opcode) as i64)),
    );

    // Full schedule calls: self-contained wrapper vs precomputed context.
    let problem = SchedProblem::ideal(body, &ideal_m);
    let cfg = ImsConfig::default();
    let wrapped = bench_ns(|| schedule_loop(&problem, &ddg, &cfg).unwrap());
    let sctx = SchedContext::new(&problem, &ddg);
    let with_ctx = bench_ns(|| schedule_loop_with(&problem, &ddg, &cfg, &sctx).unwrap());
    j.num("schedule_loop_ns", wrapped);
    j.num("schedule_loop_with_ctx_ns", with_ctx);
    j.num("context_reuse_speedup", wrapped / with_ctx);

    // Eviction-heavy clustered scheduling: all ops pinned to one cluster.
    let pins = vec![vliw_machine::ClusterId(0); body.n_ops()];
    let cproblem = SchedProblem::clustered(body, machine, &pins);
    let csctx = SchedContext::new(&cproblem, &ddg);
    j.num(
        "ims_eviction_path_ns",
        bench_ns(|| schedule_loop_with(&cproblem, &ddg, &cfg, &csctx).unwrap()),
    );

    // The paper's passes around the clustered schedule: the RCG build,
    // per-bank Chaitin/Briggs colouring, the simulator oracle and the
    // scalar reference run it checks against.
    let pcfg = PartitionConfig::default();
    let caps: Vec<usize> = machine.clusters.iter().map(|c| c.n_fus).collect();
    let ideal = schedule_loop(&problem, &ddg, &cfg).unwrap();
    let slack = compute_slack(&ddg, |op| machine.latencies.of(body.op(op).opcode) as i64);
    let rcg = build_rcg(body, &ideal, &slack, &pcfg);
    let clustered = insert_copies(body, &assign_banks_caps(&rcg, &caps, &pcfg));
    let cddg = build_ddg(&clustered.body, &machine.latencies);
    let sched = schedule_loop(
        &SchedProblem::clustered(&clustered.body, machine, &clustered.cluster_of),
        &cddg,
        &cfg,
    )
    .unwrap();
    j.num(
        "build_rcg_ns",
        bench_ns(|| build_rcg(body, &ideal, &slack, &pcfg)),
    );
    // The flat expansion both schedules get (the simulator and the
    // expansion lint walk it) and the dependence graph of the clustered
    // body, next to the ideal body's `build_ddg_ns` above.
    j.num("expand_ns", bench_ns(|| expand(body, &ideal)));
    j.num(
        "build_ddg_clustered_ns",
        bench_ns(|| build_ddg(&clustered.body, &machine.latencies)),
    );
    j.num(
        "expand_clustered_ns",
        bench_ns(|| expand(&clustered.body, &sched)),
    );
    j.num(
        "chaitin_briggs_ns",
        bench_ns(|| {
            allocate(
                &clustered.body,
                &cddg,
                &sched,
                &clustered.vreg_bank,
                machine,
            )
        }),
    );
    j.num(
        "simulate_oracle_ns",
        bench_ns(|| check_equivalence(&clustered.body, &sched, &machine.latencies).unwrap()),
    );
    j.num("scalar_reference_ns", bench_ns(|| run_reference(body)));
    j.close();
}

/// Timed repetitions of the corpus stage sweep.
const STAGE_RUNS: usize = 5;

/// The stages [`stage_sweep`] times, in pipeline order, by JSON key stem.
const STAGES: [&str; 10] = [
    "build_ddg",
    "front_end",
    "partition",
    "insert_copies",
    "clustered_schedule",
    "canonicalize",
    "normal_audit",
    "rcg_lint",
    "pressure_lint",
    "allocate",
];

/// One timed sweep over the whole corpus per stage, in pipeline order;
/// later stages consume the artifacts cached from earlier ones. Returns
/// the total clustered II and each stage's time (ms), in [`STAGES`] order.
fn stage_sweep(corpus: &[Loop], machine: &MachineDesc) -> (u64, [f64; STAGES.len()]) {
    let cfg = PartitionConfig::default();
    let caps: Vec<usize> = machine.clusters.iter().map(|c| c.n_fus).collect();
    let ims = ImsConfig::default();
    let mut ms = [0.0; STAGES.len()];
    let mut lap = {
        let mut t0 = Instant::now();
        move |stage: usize, ms: &mut [f64]| {
            ms[stage] = t0.elapsed().as_secs_f64() * 1e3;
            t0 = Instant::now();
        }
    };

    let n_edges: usize = corpus
        .iter()
        .map(|l| build_ddg(l, &machine.latencies).edges().len())
        .sum();
    black_box(n_edges);
    lap(0, &mut ms);

    let ctxs: Vec<LoopContext> = corpus
        .iter()
        .map(|l| LoopContext::new(l, machine))
        .collect();
    lap(1, &mut ms);

    let parts: Vec<_> = corpus
        .iter()
        .zip(&ctxs)
        .map(|(l, ctx)| {
            let rcg = build_rcg(l, &ctx.ideal, &ctx.slack, &cfg);
            let partition = assign_banks_caps(&rcg, &caps, &cfg);
            (rcg, partition)
        })
        .collect();
    lap(2, &mut ms);

    let clustered: Vec<_> = corpus
        .iter()
        .zip(&parts)
        .map(|(l, (_, p))| insert_copies(l, p))
        .collect();
    lap(3, &mut ms);

    let scheduled: Vec<_> = clustered
        .iter()
        .map(|c| {
            let cddg = build_ddg(&c.body, &machine.latencies);
            let problem = SchedProblem::clustered(&c.body, machine, &c.cluster_of);
            let sched = schedule_loop(&problem, &cddg, &ims).unwrap();
            (cddg, sched)
        })
        .collect();
    lap(4, &mut ms);
    let total_ii = scheduled.iter().map(|(_, s)| s.ii as u64).sum();

    // The first lint gate's alpha-normal-form audit (NRM001/NRM002), which
    // every compile pays, next to the bare canonicalization it repeats.
    for l in corpus {
        black_box(vliw_normal::canonicalize(l));
    }
    lap(5, &mut ms);

    let mut findings = 0usize;
    for l in corpus {
        let mut report = Report::default();
        NormalFormPass.run(&Artifacts::new(l, machine, &cfg), &mut report);
        findings += report.diags.len();
    }
    lap(6, &mut ms);

    // The RCG and pressure lints of the two gates, over the same artifacts.
    for ((l, ctx), (rcg, _)) in corpus.iter().zip(&ctxs).zip(&parts) {
        let mut report = Report::default();
        let actx = Artifacts::new(l, machine, &cfg)
            .with_ideal(&ctx.ideal, &ctx.slack)
            .with_rcg(rcg);
        RcgPass.run(&actx, &mut report);
        findings += report.diags.len();
    }
    lap(7, &mut ms);

    for ((l, c), (cddg, sched)) in corpus.iter().zip(&clustered).zip(&scheduled) {
        let mut report = Report::default();
        let actx = Artifacts::new(l, machine, &cfg)
            .with_clustered(&c.body, &c.cluster_of, &c.vreg_bank)
            .with_cddg(cddg)
            .with_schedule(sched);
        PressurePass.run(&actx, &mut report);
        findings += report.diags.len();
    }
    lap(8, &mut ms);

    // Per-bank colouring (the paper's step 6).
    for (c, (cddg, sched)) in clustered.iter().zip(&scheduled) {
        black_box(allocate(&c.body, cddg, sched, &c.vreg_bank, machine));
    }
    lap(9, &mut ms);
    assert_eq!(findings, 0, "the corpus lints clean");
    (total_ii, ms)
}

/// The host's cumulative (steal, total) CPU ticks from the first line of
/// `/proc/stat`, or `None` where there is no such file.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user and nice.
    let counted = ticks.get(..8)?;
    Some((counted[7], counted.iter().sum()))
}

fn stage_section(j: &mut Json, corpus: &[Loop], machine: &MachineDesc) {
    let mut total_ii = None;
    let mut times: [Vec<f64>; STAGES.len()] = Default::default();
    // The hypervisor's steal share over the sweeps, so a slow run can be
    // told from a slow change.
    let before = cpu_ticks();
    for _ in 0..STAGE_RUNS {
        let (ii, ms) = stage_sweep(corpus, machine);
        assert_eq!(
            *total_ii.get_or_insert(ii),
            ii,
            "the sweep is deterministic"
        );
        for (t, m) in times.iter_mut().zip(ms) {
            t.push(m);
        }
    }
    let steal = match (before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    };
    j.open("stages");
    j.int("corpus_loops", corpus.len() as u64);
    j.int("runs", STAGE_RUNS as u64);
    j.share("steal_share", steal);
    for (stage, t) in STAGES.iter().zip(&mut times) {
        t.sort_by(f64::total_cmp);
        j.num(&format!("{stage}_ms"), quantile(t, 0.5));
        j.num(&format!("{stage}_ms_p10"), quantile(t, 0.1));
        j.num(&format!("{stage}_ms_p90"), quantile(t, 0.9));
    }
    j.int("total_clustered_ii", total_ii.expect("at least one run"));
    j.close();
}

/// Timed repetitions of every exact sweep.
const EXACT_RUNS: usize = 5;

/// Effort totals of one sweep of exact solves.
#[derive(Default, Debug, PartialEq)]
struct ExactCounts {
    n_optimal: u64,
    nodes: u64,
    pruned: u64,
    dominance: u64,
}

/// Unbudgeted exact solves of `loops` on `machine`, each seeded with the
/// greedy partition it has to beat, swept [`EXACT_RUNS`] times. The counts
/// must repeat exactly; returns them with each sweep's solve time (ms,
/// ascending). Only the solves are timed.
fn exact_sweep(loops: &[&Loop], machine: &MachineDesc) -> (ExactCounts, Vec<f64>) {
    let cfg = PartitionConfig::default();
    let caps: Vec<usize> = machine.clusters.iter().map(|c| c.n_fus).collect();
    let inputs: Vec<_> = loops
        .iter()
        .map(|l| {
            let ctx = LoopContext::new(l, machine);
            let g = build_rcg(l, &ctx.ideal, &ctx.slack, &cfg);
            let seed = assign_banks_caps(&g, &caps, &cfg);
            (g, seed)
        })
        .collect();
    let ecfg = vliw_exact::ExactConfig::default();
    let mut first: Option<ExactCounts> = None;
    let mut times = Vec::with_capacity(EXACT_RUNS);
    for _ in 0..EXACT_RUNS {
        let mut c = ExactCounts::default();
        let t0 = Instant::now();
        for (g, seed) in &inputs {
            let r = vliw_exact::solve(g, machine.n_clusters(), Some(seed), &ecfg);
            c.nodes += r.stats.nodes_expanded;
            c.pruned += r.stats.pruned_bound;
            c.dominance += r.stats.dominance_assigns;
            c.n_optimal += r.optimal as u64;
            black_box(r.cost);
        }
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        match &first {
            None => first = Some(c),
            Some(f) => assert_eq!(f, &c, "exact counts must repeat across sweeps"),
        }
    }
    times.sort_by(f64::total_cmp);
    (first.expect("at least one sweep"), times)
}

/// Nearest-rank `q`-quantile of ascending `sorted`.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn exact_totals(j: &mut Json, (c, times): &(ExactCounts, Vec<f64>)) {
    j.int("n_optimal", c.n_optimal);
    j.int("runs", times.len() as u64);
    j.num("solve_ms", quantile(times, 0.5));
    j.num("solve_ms_p10", quantile(times, 0.1));
    j.num("solve_ms_p90", quantile(times, 0.9));
    j.int("nodes_expanded", c.nodes);
    j.int("pruned_bound", c.pruned);
    j.int("dominance_assigns", c.dominance);
}

fn exact_section(j: &mut Json, corpus: &[Loop], machine: &MachineDesc) {
    // The branch-and-bound partitioner over the gap experiment's slice
    // (loops with ≤ 12 virtual registers). Node-expansion counts are the
    // solver's work metric: they move when the bound, the symmetry
    // breaking or the dominance rule regresses, independent of machine
    // speed.
    let small: Vec<&Loop> = corpus.iter().filter(|l| l.n_vregs() <= 12).collect();
    let t = exact_sweep(&small, machine);
    j.open("exact_partitioner");
    j.int("small_loops", small.len() as u64);
    exact_totals(j, &t);
    j.close();
}

/// The machines the heavy exact and the joint sections sweep, by JSON key:
/// 4×4, where the exact search is widest and the joint seed incumbents
/// close most solves at the root, and 8×2, where the joint search and its
/// no-good learning do the work.
const SOLVER_MACHINES: [(&str, usize, usize); 2] = [("embedded_4x4", 4, 4), ("embedded_8x2", 8, 2)];

fn exact_heavy_section(j: &mut Json) {
    // The solves that cost: the 13–24-vreg scaling slice, where one
    // 24-vreg loop on 4×4 expands ~26k nodes. The ≤12-vreg slice above
    // expands ~10k nodes in all, too few to time the per-node cost.
    let slice = vliw_loopgen::scaling_slice();
    let loops: Vec<&Loop> = slice.iter().collect();
    j.open("exact_heavy");
    j.int("slice_loops", loops.len() as u64);
    for (key, banks, fus) in SOLVER_MACHINES {
        let t = exact_sweep(&loops, &MachineDesc::embedded(banks, fus));
        j.open(key);
        exact_totals(j, &t);
        j.close();
    }
    j.close();
}

fn joint_section(j: &mut Json, corpus: &[Loop]) {
    // The joint (II, slot, bank) branch-and-bound over the same ≤12-vreg
    // slice the exact partitioner benches on. Bank-node / schedule-node /
    // propagation counts are the solver's work metric: they move when a
    // propagator, the value ordering or the symmetry breaking regresses,
    // independent of machine speed. `n_closed` guards optimality claims.
    let cfg = PartitionConfig::default();
    let jcfg = vliw_joint::JointConfig { budget_ms: 4000 };
    let small: Vec<&Loop> = corpus.iter().filter(|l| l.n_vregs() <= 12).collect();

    j.open("joint_solver");
    j.int("small_loops", small.len() as u64);
    for (key, banks, fus) in SOLVER_MACHINES {
        let machine = MachineDesc::embedded(banks, fus);
        let mut bank_nodes = 0u64;
        let mut sched_nodes = 0u64;
        let mut propagations = 0u64;
        let mut pruned_propagation = 0u64;
        let mut pruned_bound = 0u64;
        let mut nogood_hits = 0u64;
        let mut n_closed = 0u64;
        let mut n_wins = 0u64;
        let t0 = Instant::now();
        for l in &small {
            let r = vliw_joint::solve_joint(l, &machine, &cfg, &jcfg);
            bank_nodes += r.stats.bank_nodes;
            sched_nodes += r.stats.sched_nodes;
            propagations += r.stats.propagations;
            pruned_propagation += r.stats.pruned_propagation;
            pruned_bound += r.stats.pruned_bound;
            nogood_hits += r.stats.nogood_hits;
            n_closed += r.optimal as u64;
            n_wins += (r.ii < r.greedy_ii) as u64;
            black_box(r.ii);
        }
        let solve_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            n_closed,
            small.len() as u64,
            "{key}: every <=12-vreg solve must close optimally"
        );

        j.open(key);
        j.int("n_closed", n_closed);
        j.int("n_joint_wins", n_wins);
        j.num("solve_ms", solve_ms);
        j.int("bank_nodes", bank_nodes);
        j.int("sched_nodes", sched_nodes);
        j.int("propagations", propagations);
        j.int("pruned_propagation", pruned_propagation);
        j.int("pruned_bound", pruned_bound);
        j.int("nogood_hits", nogood_hits);
        j.close();
    }
    j.close();
}

fn joint_scaling_section(j: &mut Json, corpus: &[Loop]) {
    // The scaling phase: the 13–24-vreg pressure slice (corpus draws in
    // range plus the dedicated pressure family) under the interactive
    // 500 ms budget the serve tier grants. The floors below are the
    // regression contract: at least 60% of the slice must close on each
    // machine, and no solve may leave without an honest classification.
    let cfg = PartitionConfig::default();
    let jcfg = vliw_joint::JointConfig { budget_ms: 500 };
    let mut slice: Vec<Loop> = corpus
        .iter()
        .filter(|l| (13..=24).contains(&l.n_vregs()))
        .cloned()
        .collect();
    slice.extend(vliw_loopgen::pressure_corpus());
    let closed_floor = (slice.len() as u64 * 6).div_ceil(10);

    j.open("joint_scaling");
    j.int("slice_loops", slice.len() as u64);
    j.int("budget_ms", 500);
    j.int("closed_floor", closed_floor);
    for (key, banks, fus) in SOLVER_MACHINES {
        let machine = MachineDesc::embedded(banks, fus);
        let mut bank_nodes = 0u64;
        let mut sched_nodes = 0u64;
        let mut nogood_hits = 0u64;
        let mut nogoods_recorded = 0u64;
        let mut n_closed = 0u64;
        let mut n_bounded = 0u64;
        let mut n_budget = 0u64;
        let mut n_wins = 0u64;
        let t0 = Instant::now();
        for l in &slice {
            let r = vliw_joint::solve_joint(l, &machine, &cfg, &jcfg);
            bank_nodes += r.stats.bank_nodes;
            sched_nodes += r.stats.sched_nodes;
            nogood_hits += r.stats.nogood_hits;
            nogoods_recorded += r.stats.nogoods_recorded;
            if r.optimal {
                n_closed += 1;
            } else if r.lower_bound_ii > r.seed_lb {
                n_bounded += 1;
            } else {
                n_budget += 1;
            }
            n_wins += (r.ii < r.greedy_ii) as u64;
            assert!(
                r.lower_bound_ii >= r.seed_lb && r.lower_bound_ii <= r.ii,
                "{}: bound {} outside [{}, {}]",
                l.name,
                r.lower_bound_ii,
                r.seed_lb,
                r.ii
            );
            black_box(r.ii);
        }
        let solve_ms = t0.elapsed().as_secs_f64() * 1e3;
        // Floor (the checked-in regression contract).
        assert!(
            n_closed >= closed_floor,
            "{key}: joint scaling closed {n_closed}/{} — floor is {closed_floor} (60%)",
            slice.len()
        );

        j.open(key);
        j.int("n_closed", n_closed);
        j.int("n_bounded", n_bounded);
        j.int("n_budget_exceeded", n_budget);
        j.int("n_joint_wins", n_wins);
        j.num("solve_ms", solve_ms);
        j.int("bank_nodes", bank_nodes);
        j.int("sched_nodes", sched_nodes);
        j.int("nogood_hits", nogood_hits);
        j.int("nogoods_recorded", nogoods_recorded);
        j.close();
    }
    j.close();
}

fn tuner_section(j: &mut Json, corpus: &[Loop], machine: &MachineDesc) {
    // The weight-tuner workload: score the same training set at many grid
    // points. `score_config` rebuilds the front end per call (the old
    // shape); `score_config_ctx` shares one LoopContext per loop.
    let train: Vec<Loop> = corpus.iter().take(24).cloned().collect();
    let cfg = PartitionConfig::default();
    const POINTS: usize = 8;

    let t0 = Instant::now();
    for _ in 0..POINTS {
        black_box(score_config(&train, machine, &cfg));
    }
    let rebuild_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    let ctxs: Vec<LoopContext> = train.iter().map(|l| LoopContext::new(l, machine)).collect();
    for _ in 0..POINTS {
        black_box(score_config_ctx(&train, &ctxs, machine, &cfg));
    }
    let shared_ms = t0.elapsed().as_secs_f64() * 1e3;

    j.open("tuner_grid");
    j.int("training_loops", train.len() as u64);
    j.int("grid_points", POINTS as u64);
    j.num("rebuild_per_point_ms", rebuild_ms);
    j.num("shared_context_ms", shared_ms);
    j.num("speedup", rebuild_ms / shared_ms);
    j.close();
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_scheduler.json".into());
    let machine = MachineDesc::embedded(4, 4);
    let corpus = full_corpus();

    let mut j = Json::new();
    j.str("machine", "embedded(4,4)");
    j.str(
        "note",
        "ns/ms wall-clock, release build; rerun: cargo run --release -p vliw-bench --bin bench_scheduler",
    );

    j.open("micro");
    micro_section(&mut j, "ilp_daxpy_u8", &rep_ilp_loop(), &machine);
    micro_section(&mut j, "recurrence_u4", &rep_recurrence_loop(), &machine);
    micro_section(
        &mut j,
        "wide_daxpy_u32",
        &vliw_loopgen::Family::Daxpy.build(0, 32, 64),
        &machine,
    );
    j.close();

    stage_section(&mut j, &corpus, &machine);
    exact_section(&mut j, &corpus, &machine);
    exact_heavy_section(&mut j);
    joint_section(&mut j, &corpus);
    joint_scaling_section(&mut j, &corpus);
    tuner_section(&mut j, &corpus, &machine);

    let json = j.finish();
    std::fs::write(&out_path, &json).expect("write baseline json");
    println!("{json}");
    eprintln!("wrote {out_path}");
}

//! `vliw-lint` — run the full cross-stage static analysis (plus the dynamic
//! equivalence oracle) over generated loop families and report findings.
//!
//! ```text
//! vliw-lint [--json] [--families daxpy,dot,...] [--variants N] [--machines all|embedded|copyunit]
//! vliw-lint --canon [--json] [--families daxpy,dot,...] [--variants N]
//! ```
//!
//! Every loop runs through the complete §4 pipeline with lint gating in
//! collect mode, so a corrupted stage produces a report instead of an
//! abort. Exit status: 0 clean (warnings allowed), 1 usage error, 2 when
//! any Error-level diagnostic fired.
//!
//! `--canon` switches to the alpha-canonicalization audit: instead of the
//! pipeline, each loop is canonicalized and checked for idempotence
//! (`NRM001`), hash/equivalence agreement over generated isomorphic
//! variants and a perturbed negative (`NRM002`), and semantics
//! preservation under the scalar reference (`NRM003`); loops are then
//! grouped into equivalence classes by structural hash, and any
//! same-hash pair must prove equivalence with a checkable witness.

use vliw_loopgen::Family;
use vliw_machine::MachineDesc;
use vliw_pipeline::{run_loop, DiagSummary, LintMode, PipelineConfig};

struct Options {
    json: bool,
    canon: bool,
    families: Vec<Family>,
    variants: usize,
    machines: Vec<MachineDesc>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        canon: false,
        families: Family::ALL.to_vec(),
        variants: 2,
        machines: Vec::new(),
    };
    let mut machines_arg = String::from("all");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--canon" => opts.canon = true,
            "--families" => {
                let list = args
                    .next()
                    .ok_or("--families needs a comma-separated list")?;
                opts.families = list
                    .split(',')
                    .map(|name| {
                        Family::ALL
                            .into_iter()
                            .find(|f| f.name().eq_ignore_ascii_case(name.trim()))
                            .ok_or_else(|| format!("unknown family '{name}'"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--variants" => {
                opts.variants = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--variants needs a positive integer")?;
            }
            "--machines" => {
                machines_arg = args
                    .next()
                    .ok_or("--machines needs all|embedded|copyunit")?;
            }
            "--help" | "-h" => {
                return Err(String::new());
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    opts.machines = match machines_arg.as_str() {
        "all" => MachineDesc::paper_models(true)
            .into_iter()
            .chain(MachineDesc::paper_models(false))
            .collect(),
        "embedded" => MachineDesc::paper_models(true),
        "copyunit" => MachineDesc::paper_models(false),
        other => return Err(format!("unknown machine set '{other}'")),
    };
    Ok(opts)
}

/// The `--canon` audit: canonicalization invariants over the loop corpus,
/// no machine model involved. Returns the number of Error-level findings.
fn run_canon(opts: &Options) -> usize {
    use std::collections::BTreeMap;
    use vliw_analysis::{canonical_semantics_diags, normal_form_audit};
    use vliw_normal::check_witness;

    let mut loops = Vec::new();
    for &family in &opts.families {
        for idx in 0..opts.variants {
            let unroll = 1 + idx % 4;
            loops.push(family.build(idx, unroll, 32 + 8 * idx as u32));
        }
    }

    let mut errors = Vec::new();
    let mut n_variant_checks = 0usize;
    let mut canons = Vec::with_capacity(loops.len());
    let mut by_hash: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (idx, l) in loops.iter().enumerate() {
        let seeds = [3u64, 41, 271].map(|s| s.wrapping_add(idx as u64 * 7));
        n_variant_checks += seeds.len();
        let (c, diags) = normal_form_audit(l, &seeds, idx as u64);
        for d in diags.iter().chain(&canonical_semantics_diags(l)) {
            errors.push(format!("{} [{}]", d.render_text(), l.name));
        }
        by_hash.entry(c.hash.hex()).or_default().push(idx);
        canons.push(c);
    }
    // Cross-class soundness: any same-hash pair must prove equivalence.
    for members in by_hash.values().filter(|v| v.len() > 1) {
        for w in members.windows(2) {
            let (a, b) = (&loops[w[0]], &loops[w[1]]);
            match canons[w[0]].equivalence(&canons[w[1]]) {
                None => errors.push(format!(
                    "NRM002: hash collision between non-equivalent '{}' and '{}'",
                    a.name, b.name
                )),
                Some(wit) => {
                    if let Err(e) = check_witness(a, b, &wit) {
                        errors.push(format!(
                            "NRM002: bad witness for '{}' ≅ '{}': {e}",
                            a.name, b.name
                        ));
                    }
                }
            }
        }
    }

    let n_classes = by_hash.len();
    if opts.json {
        let errs: Vec<String> = errors
            .iter()
            .map(|e| format!("\"{}\"", e.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect();
        println!(
            "{{\"loops\":{},\"classes\":{n_classes},\"variant_checks\":{n_variant_checks},\
             \"errors\":{},\"error_list\":[{}]}}",
            loops.len(),
            errors.len(),
            errs.join(",")
        );
    } else {
        for e in &errors {
            println!("{e}");
        }
        println!(
            "canon audit: {} loop(s) in {n_classes} equivalence class(es), \
             {n_variant_checks} variant check(s), {} error(s)",
            loops.len(),
            errors.len()
        );
        for (h, members) in by_hash.iter().filter(|(_, m)| m.len() > 1) {
            let names: Vec<&str> = members.iter().map(|&i| loops[i].name.as_str()).collect();
            println!("  class {h}: {}", names.join(", "));
        }
    }
    errors.len()
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("vliw-lint: {msg}");
            }
            eprintln!(
                "usage: vliw-lint [--canon] [--json] [--families daxpy,dot,...] \
                 [--variants N] [--machines all|embedded|copyunit]"
            );
            std::process::exit(if msg.is_empty() { 0 } else { 1 });
        }
    };

    if opts.canon {
        let errors = run_canon(&opts);
        std::process::exit(if errors > 0 { 2 } else { 0 });
    }

    // Full pipeline, full checking, never abort: static lints at every
    // stage gate plus the simulation oracle, collected per loop.
    let cfg = PipelineConfig {
        simulate: true,
        lint: LintMode::Collect,
        ..Default::default()
    };

    let mut results = Vec::new();
    let mut n_loops = 0usize;
    for machine in &opts.machines {
        for &family in &opts.families {
            for idx in 0..opts.variants {
                // Unroll 1–4 and trip counts big enough to exercise the
                // prelude/kernel/postlude structure.
                let unroll = 1 + idx % 4;
                let body = family.build(idx, unroll, 32 + 8 * idx as u32);
                let r = run_loop(&body, machine, &cfg);
                n_loops += 1;
                if !r.diagnostics.is_empty() {
                    if opts.json {
                        for d in &r.diagnostics {
                            println!("{}", d.render_json());
                        }
                    } else {
                        for d in &r.diagnostics {
                            println!("{} [{} on {}]", d.render_text(), r.name, machine.name);
                        }
                    }
                }
                results.push(r);
            }
        }
    }

    let summary = DiagSummary::from_results(&results);
    if opts.json {
        let by_code: Vec<String> = summary
            .by_code
            .iter()
            .map(|(c, n)| format!("\"{c}\":{n}"))
            .collect();
        println!(
            "{{\"loops\":{n_loops},\"errors\":{},\"warnings\":{},\"notes\":{},\"by_code\":{{{}}}}}",
            summary.errors,
            summary.warns,
            summary.infos,
            by_code.join(",")
        );
    } else {
        println!(
            "linted {n_loops} loop(s) across {} machine model(s), {} famil(ies)",
            opts.machines.len(),
            opts.families.len()
        );
        print!("{}", summary.render());
    }
    if summary.errors > 0 {
        std::process::exit(2);
    }
}

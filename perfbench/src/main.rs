//! End-to-end and per-layer benchmark of the rcg-vliw workspace.
//!
//! ```text
//! perfbench --workload <corpus-greedy|solver-closed|serve-mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run prints every end-to-end metric; with
//! `--trace 1` it prints every per-layer metric from spans recorded around
//! the benchmark's own calls into each layer. Either way the last line of
//! standard output is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`), and the exit code is non-zero when any output was wrong.
//! See `perfbench/README.md` for the workloads and what each metric means.

mod closed;
mod inputs;
mod rebuild;
mod report;
mod serve;
mod trace;
mod util;

use report::{END_TO_END, PER_LAYER};

/// The seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <corpus-greedy|solver-closed|serve-mixed> \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(serve::CHILD_ARG) {
        return serve::child_main(&args[1..]);
    }
    let (mut workload, mut seed, mut seconds, mut traced) = (None, DEFAULT_SEED, 10u64, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    let outcome = match workload.as_str() {
        "corpus-greedy" => closed::run(&closed::CORPUS_GREEDY, seed, seconds, traced),
        "solver-closed" => closed::run(&closed::SOLVER_CLOSED, seed, seconds, traced),
        "serve-mixed" => serve::run(seed, seconds, traced),
        _ => usage(),
    };
    if !outcome.valid {
        for n in &outcome.notes {
            eprintln!("# {n}");
        }
        eprintln!("{workload}: the load generator fell behind; the run is invalid");
        std::process::exit(3);
    }
    outcome.print(&workload, if traced { PER_LAYER } else { END_TO_END });
    if !outcome.correct {
        std::process::exit(1);
    }
}

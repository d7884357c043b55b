//! Regenerate every experiment table of the reproduction (E1–E8).
//!
//! ```text
//! cargo run --release --bin reproduce            # paper scale
//! cargo run --release --bin reproduce -- --test  # fast CI scale
//! ```
//!
//! Any other argument prints a usage line and exits with code 2.
//! Output is the full set of report tables, E1–E8 in order; the docs of
//! each experiment's module in `tu_eval` (`e1_covariate` …
//! `e8_representativeness`) name the figure or claim its table measures.

use std::process::ExitCode;
use std::time::Instant;
use tu_eval::{run_all, Scale};

fn main() -> ExitCode {
    let args: Vec<_> = std::env::args_os().skip(1).collect();
    let scale = match args.as_slice() {
        [] => Scale::Paper,
        [flag] if flag == "--test" => Scale::Test,
        _ => {
            eprintln!("usage: reproduce [--test]");
            return ExitCode::from(2);
        }
    };
    let t0 = Instant::now();
    println!("# SigmaTyper reproduction — experiment tables ({scale:?} scale)\n");
    println!("Paper: Making Table Understanding Work in Practice (CIDR'22).");
    println!("Every table below operationalizes one figure or claim of the paper.\n");
    for report in run_all(scale) {
        println!("{}", report.render());
    }
    println!(
        "total wall time: {:.1}s ({scale:?} scale)",
        t0.elapsed().as_secs_f64()
    );
    ExitCode::SUCCESS
}

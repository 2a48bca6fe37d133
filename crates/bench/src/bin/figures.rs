//! The paper's evaluation, regenerated: Figures 7–14, Table 1, the
//! introduction's mixed-workload claim, the buffer-memory ablation and
//! §3.1.1's savings table (see `pvm_bench::figures` and EXPERIMENTS.md).
//!
//! ```text
//! figures                       every figure, then BENCH_figures.json
//! figures ID [ID ...]           only these (fig07 … fig14, table1,
//!                               memory, mixed, savings)
//! figures fig14 --scale N       TPC-R at N customers (fig14, table1)
//! ```
//!
//! Only the bare run writes `BENCH_figures.json`, into `$PVM_BENCH_OUT`
//! (default: the working directory). The tier-1 tests in
//! `crates/bench/tests/figures.rs` compare every series with the committed
//! file, so a change that moves one regenerates it here.

use pvm_bench::figures::{build, IDS};
use pvm_bench::BenchJson;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = None;
    let mut ids = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--scale" {
            let Some(n) = it.next().and_then(|v| v.parse().ok()) else {
                eprintln!("--scale needs a number of customers");
                std::process::exit(2);
            };
            scale = Some(n);
        } else if IDS.contains(&a.as_str()) {
            ids.push(a.as_str());
        } else {
            eprintln!("unknown figure '{a}'; expected one of {}", IDS.join(", "));
            std::process::exit(2);
        }
    }
    if ids.is_empty() {
        ids = IDS.to_vec();
    }
    let mut rows = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        let figure = build(id, scale).expect("known id");
        if i > 0 {
            println!();
        }
        print!("{}", figure.text());
        rows.extend(figure.json_rows());
    }
    if args.is_empty() {
        let path = BenchJson::new("figures").rows("rows", &rows).write();
        println!("\nevery series written to {}", path.display());
    }
}

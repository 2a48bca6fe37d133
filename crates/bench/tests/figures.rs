//! The paper's figures as gated data. Each figure is rebuilt and its
//! series compared exactly with the committed `BENCH_figures.json`, one
//! test per figure; and every figure block in EXPERIMENTS.md must consist
//! of lines the figure prints. After a change that moves a series,
//! regenerate the file with `cargo run -p pvm-bench --release --bin
//! figures` and say in the change why the series moved.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use pvm_bench::figures::{build, Figure, IDS};

/// Each figure built once per test binary, shared by its own test and the
/// EXPERIMENTS.md check.
fn figure(id: &str) -> &'static Figure {
    static CACHE: OnceLock<Vec<OnceLock<Figure>>> = OnceLock::new();
    let slots = CACHE.get_or_init(|| IDS.iter().map(|_| OnceLock::new()).collect());
    let i = IDS.iter().position(|&x| x == id).expect("known figure");
    slots[i].get_or_init(|| build(id, None).expect("known figure"))
}

fn repo_file(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// The committed rows of figure `id`, without their trailing commas.
fn committed(id: &str) -> Vec<String> {
    let prefix = format!("{{\"figure\": \"{id}\", ");
    repo_file("BENCH_figures.json")
        .lines()
        .map(|l| l.trim().trim_end_matches(','))
        .filter(|l| l.starts_with(&prefix))
        .map(String::from)
        .collect()
}

fn check(id: &str) {
    assert_eq!(
        figure(id).json_rows(),
        committed(id),
        "{id} no longer matches BENCH_figures.json (left: now, right: committed)"
    );
}

macro_rules! figure_tests {
    ($($id:ident),*) => {
        $(#[test]
        fn $id() {
            check(stringify!($id));
        })*
    };
}

figure_tests!(
    fig07, fig08, fig09, fig10, fig11, fig12, fig13, fig14, table1, memory, mixed, savings
);

#[test]
fn committed_file_holds_every_figure_and_nothing_else() {
    let text = repo_file("BENCH_figures.json");
    let ids: BTreeSet<&str> = text
        .lines()
        .filter_map(|l| l.trim().strip_prefix("{\"figure\": \""))
        .filter_map(|l| l.split('"').next())
        .collect();
    assert_eq!(ids, IDS.into_iter().collect());
}

/// The figure an EXPERIMENTS.md `## ` heading documents, if any.
fn heading_figure(heading: &str) -> Option<&'static str> {
    const HEADINGS: [(&str, &str); 11] = [
        ("Figure 7 ", "fig07"),
        ("Figure 8 ", "fig08"),
        ("Figure 9 ", "fig09"),
        ("Figure 10 ", "fig10"),
        ("Figure 11 ", "fig11"),
        ("Figure 12 ", "fig12"),
        ("Figure 13 ", "fig13"),
        ("Figure 14 ", "fig14"),
        ("Table 1 ", "table1"),
        ("Intro claim ", "mixed"),
        ("Memory ablation ", "memory"),
    ];
    HEADINGS
        .iter()
        .find(|(prefix, _)| heading.starts_with(prefix))
        .map(|&(_, id)| id)
}

#[test]
fn experiments_md_figure_blocks_are_printed_lines() {
    let md = repo_file("EXPERIMENTS.md");
    let mut section = None;
    let mut in_block = false;
    let mut checked = BTreeSet::new();
    for line in md.lines() {
        if line.starts_with("```") {
            in_block = !in_block;
        } else if in_block {
            let Some(id) = section else { continue };
            if line.trim().is_empty() {
                continue;
            }
            let text = figure(id).text();
            assert!(
                text.lines().any(|l| l.trim_end() == line.trim_end()),
                "EXPERIMENTS.md, {id} block: `figures {id}` prints no line\n{line}"
            );
            checked.insert(id);
        } else if let Some(heading) = line.strip_prefix("## ") {
            section = heading_figure(heading);
        }
    }
    let expected: BTreeSet<&str> = IDS.into_iter().filter(|&id| id != "savings").collect();
    assert_eq!(checked, expected, "a figure section lost its block");
}

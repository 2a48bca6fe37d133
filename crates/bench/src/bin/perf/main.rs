//! `perf` — the repo's benchmark. It drives the public `pvm` API from
//! outside on four workloads and reports end-to-end maintenance/read
//! metrics, or (traced) per-layer metrics. See `README.md` in this
//! directory for every metric, workload and command.
//!
//! ```text
//! perf --workload <w> --seed <n> --seconds <s> --trace <0|1>   (the driver's form)
//! perf run <w> | trace <w> | all | layers | compare <a> <b> | spec
//! ```

mod compare;
mod env;
mod estimate;
mod gen;
mod json;
mod layers;
mod registry;
mod span;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use json::Json;
use registry::{MetricDef, Metrics, END_TO_END, PER_LAYER, WORKLOADS};
use workloads::{Config, Limit, Pass};

/// `run_seconds` in `BENCHMARK.json`: how long one run measures.
const RUN_SECONDS: u64 = 20;
/// A traced run spends this share of its time on the untraced and on
/// the traced pass each, and the rest on the layer kernels.
const TRACE_PASS_SHARE: f64 = 0.25;
const KERNELS: u32 = 31;
/// What each layer kernel runs for outside a time-limited run.
const KERNEL_TIME: Duration = Duration::from_secs(1);
const SMOKE_KERNEL_TIME: Duration = Duration::from_millis(2);

const USAGE: &str = "\
usage: perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
       perf run <workload> | trace <workload>      same, with --trace 0 | 1
       perf all [--trace <0|1>]                    every workload, each in a child process
       perf layers                                 the layer kernels alone, 1 s each
       perf compare <a.json|dir> <b.json|dir>      verdict per workload x metric
       perf spec                                   print BENCHMARK.json from the metric table
options: --seed <n> (default 1)  --smoke (tiny sizes)
         --seconds <s> measures for s seconds; --slices <n> measures n slices. With neither,
         a workload measures its frozen slice count, so counted metrics repeat exactly.
         --out <dir> (write <workload>.json, or with tracing <workload>.layers.json and the
         Chrome trace <workload>.trace.json + .jsonl; layers writes layers.json)
workloads: trickle bulk sql_serve partial_zipf";

#[derive(Debug)]
struct Args {
    mode: String,
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    slices: Option<usize>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        mode: "run".into(),
        positional: Vec::new(),
        workload: None,
        seed: 1,
        seconds: None,
        slices: None,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = argv.iter();
    let mut first = true;
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} takes {what}"));
        let number = |text: String| {
            text.parse::<f64>()
                .map_err(|_| format!("bad number '{text}'"))
        };
        match arg.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                let text = value("a whole number")?;
                a.seed = text.parse().map_err(|_| format!("bad seed '{text}'"))?;
            }
            "--seconds" => a.seconds = Some(number(value("a number of seconds")?)?),
            "--slices" => a.slices = Some(number(value("a count")?)? as usize),
            "--trace" => a.trace = number(value("0 or 1")?)? != 0.0,
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(value("a directory")?.into()),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            word if first => a.mode = word.to_owned(),
            word => a.positional.push(word.to_owned()),
        }
        first = false;
    }
    if a.seconds.is_some_and(|s| !(s.is_finite() && s > 0.0)) {
        return Err("--seconds must be positive".into());
    }
    if a.seconds.is_some() && a.slices.is_some() {
        return Err("--seconds and --slices exclude each other".into());
    }
    Ok(a)
}

impl Args {
    fn config(&self) -> Config {
        Config {
            seed: self.seed,
            limit: match (self.seconds, self.slices) {
                (Some(s), _) => Limit::Seconds(s),
                (None, Some(n)) => Limit::Slices(n.max(1)),
                (None, None) => Limit::Frozen,
            },
            smoke: self.smoke,
        }
    }
}

/// One finished run, ready to print and write.
struct Outcome {
    workload: String,
    traced: bool,
    limit: Limit,
    metrics: Metrics,
    pass: Pass,
}

fn run_workload(workload: &str, cfg: &Config, traced: bool) -> Option<Outcome> {
    if !traced {
        let mut pass = workloads::run(workload, cfg, false)?;
        return Some(Outcome {
            workload: workload.to_owned(),
            traced,
            limit: cfg.limit,
            metrics: std::mem::take(&mut pass.metrics),
            pass,
        });
    }
    // Untraced pass, traced pass, then the kernels: the ratio of the two
    // passes' throughput is the tracing overhead, and the kernels' unit
    // costs price the traced pass's counts.
    let part = cfg.share(TRACE_PASS_SHARE);
    let plain = workloads::run(workload, &part, false)?;
    let mut pass = workloads::run(workload, &part, true)?;
    let kernel_budget = match cfg.limit {
        Limit::Seconds(s) => {
            Duration::from_secs_f64(s * (1.0 - 2.0 * TRACE_PASS_SHARE) / f64::from(KERNELS))
        }
        _ if cfg.smoke => SMOKE_KERNEL_TIME,
        _ => KERNEL_TIME,
    };
    let kernels = layers::run(cfg.seed, kernel_budget);
    let mut metrics = std::mem::take(&mut pass.metrics);
    metrics.set(
        "obs.overhead_ratio",
        metrics.value("maintain_rows_per_s") / plain.metrics.value("maintain_rows_per_s"),
    );
    metrics.extend(estimate::shares(&pass.counts, &kernels));
    metrics.extend(kernels);
    pass.checker.absorb(plain.checker);
    Some(Outcome {
        workload: workload.to_owned(),
        traced,
        limit: cfg.limit,
        metrics,
        pass,
    })
}

impl Outcome {
    /// The metrics the driver's result line must hold, in table order.
    fn declared(&self) -> Vec<MetricDef> {
        if self.traced {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.iter().map(|(m, _)| *m).collect()
        }
    }

    /// What is printed and written: the declared metrics, and after them
    /// every per-layer metric an untraced run measured on the way (the
    /// counted ones among them, which `perf compare` checks).
    fn reported(&self) -> Vec<MetricDef> {
        let mut all = self.declared();
        if !self.traced {
            all.extend(PER_LAYER.iter().filter(|m| self.metrics.has(m.name)));
        }
        all
    }

    /// Every end-to-end metric must have been measured and be non-zero;
    /// a per-layer metric the workload does not exercise reads 0.
    fn missing(&self) -> Vec<&'static str> {
        if self.traced {
            return Vec::new();
        }
        self.declared()
            .into_iter()
            .map(|m| m.name)
            .filter(|n| {
                let v = self.metrics.value(n);
                v.is_nan() || v <= 0.0
            })
            .collect()
    }

    /// How the result file names what limited the run. Two runs executed
    /// the same operations when seed and slice count agree.
    fn limit_label(&self) -> String {
        match self.limit {
            Limit::Seconds(s) => format!("{s} s"),
            Limit::Slices(_) | Limit::Frozen => format!("{} slices", self.pass.slices),
        }
    }

    fn correct(&self) -> bool {
        self.pass.checker.failed == 0 && self.missing().is_empty()
    }

    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    fn result_line(&self) -> String {
        let metrics = self.declared().into_iter().map(|m| {
            let fields = [
                ("value", Json::Num(self.metrics.value(m.name))),
                ("unit", Json::str(m.unit)),
            ];
            (m.name, Json::obj(fields))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            (
                "attempted",
                Json::Num(self.pass.checker.attempted.max(1) as f64),
            ),
            ("failed", Json::Num(self.pass.checker.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .compact()
    }

    /// The full record written with `--out`: environment, frozen sizes,
    /// and per metric its slice values, their spread and sample counts.
    fn record(&self, seed: u64) -> Json {
        let metrics = self.reported().into_iter().map(|m| {
            let s = self.metrics.get(m.name).cloned().unwrap_or_default();
            let fields = [
                ("value", Json::Num(s.value)),
                ("unit", Json::str(m.unit)),
                ("median", Json::Num(s.median)),
                ("spread", Json::Num(s.spread)),
                ("groups", Json::Num(s.groups as f64)),
                ("samples", Json::Num(s.samples as f64)),
                (
                    "slices",
                    Json::Arr(s.per_slice.iter().map(|v| Json::Num(*v)).collect()),
                ),
            ];
            (m.name, Json::obj(fields))
        });
        let notes = self
            .pass
            .notes
            .iter()
            .map(|(k, v)| (k.as_str(), Json::Num(*v)));
        // Per span name: how many, total time, and self time (total
        // minus what child spans cover) — empty on untraced runs.
        let mut spans = Vec::new();
        for r in &self.pass.recorders {
            for (name, t) in span::totals_by_name(r.spans()) {
                let fields = [
                    ("count", Json::Num(t.count as f64)),
                    ("total_us", Json::Num(t.total_ns as f64 / 1e3)),
                    ("self_us", Json::Num(t.self_ns as f64 / 1e3)),
                ];
                spans.push((name, Json::obj(fields)));
            }
        }
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("trace", Json::Num(f64::from(u8::from(self.traced)))),
            ("limit", Json::str(self.limit_label())),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.pass.checker.attempted as f64)),
            ("failed", Json::Num(self.pass.checker.failed as f64)),
            (
                "schedule_hash",
                Json::str(format!("{:016x}", self.pass.schedule_hash)),
            ),
            ("env", env::describe(seed)),
            ("sizes", Json::obj(notes)),
            ("spans", Json::obj(spans)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    fn print_and_write(&self, seed: u64, out: Option<&Path>) -> std::io::Result<()> {
        println!(
            "schedule_hash {:016x}  cores {}",
            self.pass.schedule_hash,
            env::cores()
        );
        for m in self.reported() {
            let s = self.metrics.get(m.name).cloned().unwrap_or_default();
            println!(
                "{} {} {} {}  (median slice {}, slices {}, samples {}, spread {:.3})",
                self.workload, m.name, s.value, m.unit, s.median, s.groups, s.samples, s.spread
            );
        }
        for name in self.missing() {
            eprintln!("FAILED: {} did not measure {name}", self.workload);
        }
        if let Some(dir) = out {
            std::fs::create_dir_all(dir)?;
            let stem = dir.join(&self.workload);
            if self.traced {
                let recorders: Vec<&span::Recorder> = self.pass.recorders.iter().collect();
                std::fs::write(
                    stem.with_extension("trace.json"),
                    span::chrome_trace(&recorders),
                )?;
                std::fs::write(stem.with_extension("trace.jsonl"), span::jsonl(&recorders))?;
                std::fs::write(
                    stem.with_extension("layers.json"),
                    self.record(seed).pretty(),
                )?;
            } else {
                std::fs::write(stem.with_extension("json"), self.record(seed).pretty())?;
            }
        }
        println!("{}", self.result_line());
        Ok(())
    }
}

/// `BENCHMARK.json`, generated from the metric table.
fn spec() -> Json {
    let describe = |m: &MetricDef| {
        vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.label())),
        ]
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "crates/bench/src/bin/perf/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        (
            "paths",
            Json::Arr(vec![Json::str("crates/bench/src/bin/perf")]),
        ),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(n, w)| Json::obj([("name", Json::str(*n)), ("why", Json::str(*w))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|(m, b)| {
                        let mut f = describe(m);
                        f.push(("bound", Json::Num(*b)));
                        Json::obj(f)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| Json::obj(describe(m))).collect()),
        ),
    ])
}

/// Run every workload, each in a child process so memory is per
/// workload. Children print their own metric lines.
fn all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", workload, "--seed", &args.seed.to_string()]);
        cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(s) = args.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if let Some(n) = args.slices {
            cmd.args(["--slices", &n.to_string()]);
        }
        if args.smoke {
            cmd.arg("--smoke");
        }
        if let Some(dir) = &args.out {
            cmd.arg("--out").arg(dir);
        }
        let status = cmd.status().map_err(|e| format!("{workload}: {e}"))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn main_inner(argv: &[String]) -> Result<bool, String> {
    let args = parse_args(argv)?;
    let workload = match args.mode.as_str() {
        "spec" => {
            print!("{}", spec().pretty());
            return Ok(true);
        }
        "compare" => {
            let [a, b] = args.positional.as_slice() else {
                return Err("compare takes two result files or directories".into());
            };
            return compare::run(Path::new(a), Path::new(b));
        }
        "layers" => {
            let each = if args.smoke {
                SMOKE_KERNEL_TIME
            } else {
                KERNEL_TIME
            };
            let kernels = layers::run(args.seed, each);
            let fields: Vec<(&str, Json)> = PER_LAYER
                .iter()
                .filter_map(|m| Some((m, kernels.get(m.name)?)))
                .map(|(m, s)| {
                    println!(
                        "layers {} {} {}  (median slice {}, spread {:.3})",
                        m.name, s.value, m.unit, s.median, s.spread
                    );
                    let fields = [
                        ("value", Json::Num(s.value)),
                        ("unit", Json::str(m.unit)),
                        ("median", Json::Num(s.median)),
                        ("spread", Json::Num(s.spread)),
                        ("operations", Json::Num(s.samples as f64)),
                        (
                            "slices",
                            Json::Arr(s.per_slice.iter().map(|v| Json::Num(*v)).collect()),
                        ),
                    ];
                    (m.name, Json::obj(fields))
                })
                .collect();
            if let Some(dir) = &args.out {
                let record = Json::obj([
                    ("kernel_seconds", Json::Num(each.as_secs_f64())),
                    ("env", env::describe(args.seed)),
                    ("metrics", Json::obj(fields)),
                ]);
                std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
                std::fs::write(dir.join("layers.json"), record.pretty())
                    .map_err(|e| e.to_string())?;
            }
            return Ok(true);
        }
        "all" => return all(&args),
        "run" | "trace" => args
            .workload
            .clone()
            .or_else(|| args.positional.first().cloned()),
        other => return Err(format!("unknown mode '{other}'")),
    };
    let workload = workload.ok_or("no workload named")?;
    let traced = args.trace || args.mode == "trace";
    let outcome = run_workload(&workload, &args.config(), traced)
        .ok_or_else(|| format!("unknown workload '{workload}'"))?;
    outcome
        .print_and_write(args.seed, args.out.as_deref())
        .map_err(|e| e.to_string())?;
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::from(if argv.is_empty() { 2 } else { 0 });
    }
    match main_inner(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, traced: bool) -> Outcome {
        let cfg = Config {
            seed: 42,
            limit: Limit::Slices(3),
            smoke: true,
        };
        run_workload(workload, &cfg, traced).expect("known workload")
    }

    /// Every workload at smoke scale, twice: verified, every end-to-end
    /// metric measured, and the same seed gives the same schedule and
    /// the same counted metrics.
    #[test]
    fn smoke_runs_verify_and_repeat() {
        for (workload, _) in WORKLOADS {
            let (a, b) = (smoke(workload, false), smoke(workload, false));
            assert!(
                a.pass.checker.attempted > 10,
                "{workload} verified too little"
            );
            assert_eq!(a.pass.checker.failed, 0, "{workload} failed checks");
            assert_eq!(a.missing(), Vec::<&str>::new(), "{workload}");
            assert!(a.correct());
            assert_eq!(a.pass.schedule_hash, b.pass.schedule_hash, "{workload}");
            // Counted metrics repeat exactly under a fixed op count, and
            // the result file carries them for `perf compare`.
            let record = a.record(42);
            for name in registry::COUNTED {
                assert!(a.metrics.has(name), "{workload} {name}");
                assert_eq!(
                    a.metrics.get(name),
                    b.metrics.get(name),
                    "{workload} {name}"
                );
                assert!(
                    record.get("metrics").unwrap().get(name).is_some(),
                    "{workload} {name}"
                );
            }
            assert_eq!(record.get("limit").unwrap().as_str(), Some("3 slices"));
            let line = json::parse(&a.result_line()).unwrap();
            let keys: Vec<&str> = line
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                line.get("metrics").unwrap().as_object().unwrap().len(),
                END_TO_END.len()
            );
            let other = run_workload(
                workload,
                &Config {
                    seed: 43,
                    limit: Limit::Slices(1),
                    smoke: true,
                },
                false,
            )
            .unwrap();
            assert_ne!(a.pass.schedule_hash, other.pass.schedule_hash, "{workload}");
        }
    }

    /// Traced smoke runs: well-formed spans, every per-layer metric
    /// printed, estimated shares summing to 1, an overhead ratio.
    #[test]
    fn traced_smoke_runs_report_every_layer() {
        for (workload, _) in WORKLOADS {
            let t = smoke(workload, true);
            assert_eq!(t.pass.checker.failed, 0, "{workload} failed checks");
            let spans: usize = t.pass.recorders.iter().map(|r| r.spans().len()).sum();
            assert!(spans > 20, "{workload} recorded {spans} spans");
            for r in &t.pass.recorders {
                span::check_well_formed(r.spans()).unwrap_or_else(|e| panic!("{workload}: {e}"));
            }
            let names: Vec<&str> = t
                .pass
                .recorders
                .iter()
                .flat_map(|r| r.spans())
                .map(|s| s.name)
                .collect();
            assert!(
                names.contains(&"workload.gen") && names.contains(&"core.read_key")
                    || workload == "sql_serve"
            );
            let line = json::parse(&t.result_line()).unwrap();
            assert_eq!(
                line.get("metrics").unwrap().as_object().unwrap().len(),
                PER_LAYER.len()
            );
            let shares: f64 = estimate::SHARES.iter().map(|s| t.metrics.value(s)).sum();
            assert!(
                (shares - 1.0).abs() < 1e-9,
                "{workload}: shares sum to {shares}"
            );
            assert!(t.metrics.value("obs.overhead_ratio") > 0.0, "{workload}");
            assert!(t.metrics.value("types.row.encode_ns") > 0.0);
            assert!(
                t.metrics.value("core.auxrel.tw_io_per_row") > 0.0,
                "{workload}"
            );
            let trace = span::chrome_trace(&t.pass.recorders.iter().collect::<Vec<_>>());
            assert!(json::parse(&trace).is_ok(), "{workload}: trace is not JSON");
        }
    }

    #[test]
    fn arguments_parse_in_the_drivers_form() {
        let argv: Vec<String> = "--workload bulk --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(
            (a.mode.as_str(), a.workload.as_deref(), a.seed, a.trace),
            ("run", Some("bulk"), 7, true)
        );
        assert_eq!(a.config().limit, Limit::Seconds(3.0));
        let a = parse_args(&[
            "trace".into(),
            "trickle".into(),
            "--slices".into(),
            "4".into(),
        ])
        .unwrap();
        assert_eq!(
            (a.mode.as_str(), a.positional.len(), a.config().limit),
            ("trace", 1, Limit::Slices(4))
        );
        // Neither limit given: the workload's frozen slice count.
        let a = parse_args(&["all".into(), "--seed".into(), "2".into()]).unwrap();
        assert_eq!(
            (a.mode.as_str(), a.seed, a.config().limit),
            ("all", 2, Limit::Frozen)
        );
        assert!(parse_args(&["--seconds".into(), "0".into()]).is_err());
        let both = ["--seconds", "3", "--slices", "4"].map(str::to_owned);
        assert!(parse_args(&both).is_err());
        assert!(parse_args(&["--bogus".into()]).is_err());
    }

    /// The package's manifest sits two (`pvm-bench`) or five (`pvm-perf`)
    /// levels below the repo root.
    #[test]
    fn spec_is_the_committed_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .map(|dir| dir.join("BENCHMARK.json"))
            .find(|p| p.exists())
            .expect("BENCHMARK.json at the repo root");
        let committed = std::fs::read_to_string(path).expect("readable BENCHMARK.json");
        assert_eq!(json::parse(&committed).unwrap(), spec());
        assert!(committed.len() < 64 * 1024);
    }
}

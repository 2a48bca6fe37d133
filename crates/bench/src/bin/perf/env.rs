//! The environment a result was measured in, recorded in every output.

use std::process::{Command, Stdio};

use crate::json::Json;

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_owned(),
    )
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn describe(seed: u64) -> Json {
    // Only ask git when run from a checkout's root; the driver's copy is
    // not a repository and git would otherwise search the parents.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| first_line_of("git", &["rev-parse", "HEAD"]))
        .flatten();
    let allocator_env: Vec<(String, Json)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("MALLOC_") || k.starts_with("GLIBC_TUNABLES"))
        .map(|(k, v)| (k, Json::str(v)))
        .collect();
    Json::obj([
        ("cores", Json::Num(cores() as f64)),
        (
            "rustc",
            Json::str(first_line_of("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "git_commit",
            Json::str(commit.unwrap_or_else(|| "unknown".into())),
        ),
        ("allocator_env", Json::Obj(allocator_env)),
        ("seed", Json::Num(seed as f64)),
    ])
}

//! `paperbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, a
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics when `--trace 0`, the per-layer metrics when
//! `--trace 1`. Human-readable notes go to standard error. A traced run
//! also writes its spans to `.paperbench/trace-<workload>-<seed>.json`.

use paperbench::{stats, Config, Outcome, Workload, E2E_METRICS, LAYER_METRICS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: paperbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 25.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("need 0 < --seconds <= 3600".into());
    }
    Ok(Config {
        workload: workload.ok_or("need --workload")?,
        seed,
        seconds,
        trace,
        workdir: PathBuf::from(".paperbench"),
    })
}

/// The run's metrics, in declaration order.
fn metrics(cfg: &Config, out: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    if cfg.trace {
        return LAYER_METRICS
            .iter()
            .map(|&(name, unit, _)| {
                let v = out.layers.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
                (name, v, unit)
            })
            .collect();
    }
    let success = if out.attempted > 0 {
        out.ok_ops as f64 / out.attempted as f64
    } else {
        0.0
    };
    let value = |name: &str| match name {
        "op_p50_ms" => stats::chunked_percentile(&out.op_ms, 50.0, out.chunk),
        "op_p90_ms" => stats::chunked_percentile(&out.op_ms, 90.0, out.chunk),
        "ops_per_s" => out.ok_ops as f64 / out.measured_s.max(1e-9),
        "success_rate" => success,
        "setup_s" => stats::median(&out.setup_s),
        "peak_rss_mb" => stats::peak_rss_mb().unwrap_or(0.0),
        other => unreachable!("undeclared end-to-end metric {other}"),
    };
    E2E_METRICS
        .iter()
        .map(|&(name, unit, _)| (name, value(name), unit))
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.workdir) {
        eprintln!("error: create {}: {e}", cfg.workdir.display());
        return ExitCode::from(2);
    }
    let out = paperbench::run(&cfg);
    let metrics = metrics(&cfg, &out);

    eprintln!(
        "{} seed {} ({}): {} attempted, {} failed, {} output-check failures",
        cfg.workload.name(),
        cfg.seed,
        if cfg.trace { "traced" } else { "untraced" },
        out.attempted,
        out.failed,
        out.check_failures
    );
    let setups: Vec<String> = out
        .setup_s
        .iter()
        .map(|s| format!("{:.1}", s * 1e3))
        .collect();
    eprintln!("  set-up repetitions (CPU ms): {}", setups.join(" "));
    if !out.wall_ms.is_empty() {
        eprintln!(
            "  wall ms per op: p50 {:.2}, p90 {:.2} (CPU ms: p50 {:.2}, p90 {:.2})",
            stats::chunked_percentile(&out.wall_ms, 50.0, out.chunk),
            stats::chunked_percentile(&out.wall_ms, 90.0, out.chunk),
            stats::chunked_percentile(&out.op_ms, 50.0, out.chunk),
            stats::chunked_percentile(&out.op_ms, 90.0, out.chunk),
        );
    }
    for line in &out.report {
        eprintln!("  {line}");
    }
    for (name, v, unit) in &metrics {
        eprintln!("  {name:<30} {v:>16.4} {unit}");
    }
    if cfg.trace {
        let path = cfg
            .workdir
            .join(format!("trace-{}-{}.json", cfg.workload.name(), cfg.seed));
        match std::fs::write(&path, paperbench::trace::to_json(&out.spans)) {
            Ok(()) => eprintln!("  spans written to {}", path.display()),
            Err(e) => eprintln!("  could not write {}: {e}", path.display()),
        }
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.check_failures == 0,
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

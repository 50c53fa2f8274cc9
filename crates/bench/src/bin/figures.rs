//! Regenerate every figure/table of the paper.
//!
//! ```text
//! figures [--fig 3|4|5|67|8|9|10|11|text|all] [--scale F | --full] [--json DIR]
//! ```
//!
//! `--scale 0.1` (default 0.15) builds proportionally smaller synthetic
//! datasets; `--full` builds the paper-scale networks (YNG: 5,348 genes,
//! CRE: 27,896 genes — run in release mode). With `--json DIR`, the raw
//! data series are also written as JSON files for EXPERIMENTS.md.

use casbn_bench::figures::*;
use casbn_bench::render::*;
use casbn_bench::ExperimentScale;

struct Args {
    fig: String,
    scale: ExperimentScale,
    json_dir: Option<String>,
}

fn parse_args() -> Args {
    let mut fig = "all".to_string();
    let mut scale = ExperimentScale::Scaled(0.15);
    let mut json_dir = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--fig" => {
                fig = argv.get(i + 1).expect("--fig needs a value").clone();
                i += 2;
            }
            "--scale" => {
                let f: f64 = argv
                    .get(i + 1)
                    .expect("--scale needs a value")
                    .parse()
                    .expect("scale must be a float");
                scale = ExperimentScale::Scaled(f);
                i += 2;
            }
            "--full" => {
                scale = ExperimentScale::Full;
                i += 1;
            }
            "--json" => {
                json_dir = Some(argv.get(i + 1).expect("--json needs a dir").clone());
                i += 2;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    Args {
        fig,
        scale,
        json_dir,
    }
}

/// Write `json` to `DIR/name.json` when `--json DIR` was given.
fn dump_json(dir: &Option<String>, name: &str, json: String) {
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).expect("create json dir");
        let path = format!("{dir}/{name}.json");
        std::fs::write(&path, json).expect("write json");
        eprintln!("wrote {path}");
    }
}

fn main() {
    let args = parse_args();
    let mut runner = FigureRunner::new(args.scale);
    let want = |f: &str| args.fig == "all" || args.fig == f;

    if want("3") {
        let f = fig3(&mut runner);
        print!("{}", render_fig3(&f));
        dump_json(&args.json_dir, "fig3", fig3_json(&f));
    }
    if want("4") {
        let f = fig4(&mut runner);
        print!("{}", render_fig4(&f));
        dump_json(&args.json_dir, "fig4", fig4_json(&f));
    }
    if want("5") {
        let f = fig5(&mut runner);
        print!("{}", render_fig5(&f));
        dump_json(&args.json_dir, "fig5", fig5_json(&f));
    }
    if want("67") || want("6") || want("7") || want("8") {
        let f = fig67(&mut runner);
        if want("67") || want("6") || want("7") {
            print!("{}", render_fig67(&f));
            dump_json(&args.json_dir, "fig67", fig67_json(&f));
        }
        if want("8") {
            let f8 = fig8(&f);
            print!("{}", render_fig8(&f8));
            dump_json(&args.json_dir, "fig8", fig8_json(&f8));
        }
    }
    if want("9") {
        let f = fig9(&mut runner);
        print!("{}", render_fig9(&f));
        dump_json(&args.json_dir, "fig9", fig9_json(f.as_ref()));
    }
    if want("10") {
        let procs = [1usize, 2, 4, 8, 16, 32, 64];
        let f = fig10(&mut runner, &procs);
        print!("{}", render_fig10(&f));
        dump_json(&args.json_dir, "fig10", fig10_json(&f));
    }
    if want("11") {
        let f = fig11(&mut runner);
        print!("{}", render_fig11(&f));
        dump_json(&args.json_dir, "fig11", fig11_json(&f));
    }
    if want("text") {
        let t = text_stats(&mut runner);
        print!("{}", render_text_stats(&t));
        dump_json(&args.json_dir, "text_stats", text_stats_json(&t));
    }
}

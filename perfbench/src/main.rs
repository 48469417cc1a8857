//! The repository benchmark: drives the real write and read paths
//! in-process through each layer's public functions, checks the outputs,
//! and prints every metric by name and unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ingest|serve|analytics --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object: the end-to-end
//! metrics of an untraced run, or the per-layer metrics of a traced one.
//! The exit code is 0 only when every correctness check passed.
//! `GLOSSARY.md` describes the workloads and every metric.

mod analytics;
mod exact;
mod harness;
mod ingest;
mod inputs;
mod layers;
mod load;
mod report;
mod serve;
mod spans;
mod stats;

use std::path::Path;
use std::process::ExitCode;

use harness::{Params, RUN_ROOT, WARMUP_PASSES};
use report::Report;
use spans::Tracer;

/// The seed used when `--seed` is not given, and a second seed kept out of
/// development so later claims can be re-checked on inputs nobody tuned
/// for (`--seed heldout`).
pub const DEFAULT_SEED: u64 = 1;
pub const HELDOUT_SEED: u64 = 20_261_017;

pub const WORKLOADS: [&str; 3] = ["ingest", "serve", "analytics"];

const USAGE: &str = "usage: perfbench --workload ingest|serve|analytics \
[--seed N|default|heldout] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<(String, Params), String> {
    let mut workload = None;
    let mut p = Params {
        seed: DEFAULT_SEED,
        seconds: 5,
        trace: false,
        tiny: false,
        last_pass: true,
        warmup: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                p.seed = match value()?.as_str() {
                    "default" => DEFAULT_SEED,
                    "heldout" => HELDOUT_SEED,
                    v => v.parse().map_err(|_| format!("bad --seed '{v}'"))?,
                }
            }
            "--seconds" => {
                let v = value()?;
                p.seconds = v.parse().map_err(|_| format!("bad --seconds '{v}'"))?;
                if !(1..=600).contains(&p.seconds) {
                    return Err("--seconds must be 1..=600".into());
                }
            }
            "--trace" => {
                p.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace '{v}' (0 or 1)")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    Ok((workload, p))
}

/// Runs one workload: [`WARMUP_PASSES`] then [`harness::passes`] passes, each with
/// its own set-up, timed stream and recoveries, combined by
/// [`Report::combine`]. The exact counts must agree across all passes,
/// which use one seed. Infrastructure errors (the WAL could not be written,
/// say) are recorded as failed checks.
pub fn run(workload: &str, p: &Params) -> (Report, Tracer) {
    let total = WARMUP_PASSES + harness::passes(workload);
    let mut passes = Vec::with_capacity(total);
    let mut all_spans = Tracer::new(p.trace, std::time::Instant::now());
    for i in 0..total {
        let pass = Params { last_pass: i + 1 == total, warmup: i < WARMUP_PASSES, ..*p };
        let mut r = Report::default();
        let res = match workload {
            "ingest" => ingest::run(&pass, &mut r),
            "serve" => serve::run(&pass, &mut r),
            "analytics" => analytics::run(&pass, &mut r),
            other => Err(format!("unknown workload '{other}'")),
        };
        match res {
            Ok(tracer) if i >= WARMUP_PASSES => all_spans.absorb(tracer),
            Ok(_) => {}
            Err(e) => r.check(Err(e)),
        }
        passes.push(r);
    }
    let _ = std::fs::remove_dir_all(harness::reference_dir(workload));
    let first = passes[0].exact_lines(workload);
    let repeat = passes.iter().skip(1).map(|r| r.exact_lines(workload)).find(|l| *l != first);
    let mut r = Report::combine(passes, WARMUP_PASSES);
    if p.trace {
        layers::span_metrics(&mut r, &spans::attribute(all_spans.spans()));
    }
    r.check(match repeat {
        None => Ok(()),
        Some(other) => Err(format!("exact counts differ between passes: {first:?} vs {other:?}")),
    });
    (r, all_spans)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, p) = match parse(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (mut r, tracer) = run(&workload, &p);
    let root = Path::new(RUN_ROOT);
    r.check(exact::build_id().and_then(|build| {
        exact::check(
            &exact::record_path(root, &build, &workload, p.seed, p.seconds),
            &r.exact_lines(&workload),
        )
    }));
    if p.trace {
        let path = root.join(format!("spans-{workload}-seed{}.tsv", p.seed));
        if let Err(e) = tracer.write_tsv(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    print!("{}", r.table(&workload, p.trace));
    println!("{}", r.json(p.trace));
    if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Workload runs read process-wide counters, so they run one at a time.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let (w, p) = parse(&args("--workload serve --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(w, "serve");
        assert_eq!((p.seed, p.seconds, p.trace), (7, 3, true));
        let (_, p) = parse(&args("--workload ingest --seed heldout")).unwrap();
        assert_eq!(p.seed, HELDOUT_SEED);
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload ingest --trace 2")).is_err());
        assert!(parse(&args("--seed 1")).is_err());
        assert!(parse(&args("--workload ingest --bogus 1")).is_err());
    }

    fn tiny_run(workload: &str, trace: bool) -> Report {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let p = Params { seed: 3, seconds: 1, trace, tiny: true, last_pass: true, warmup: false };
        let (r, _) = run(workload, &p);
        assert!(r.correct(), "{workload}: {:?}", r.failures);
        r
    }

    fn check_tiny(workload: &str) {
        let untraced = tiny_run(workload, false);
        for &(name, _) in report::END_TO_END {
            let v = untraced.get(name).unwrap_or(0.0);
            assert!(v > 0.0 && v.is_finite(), "{workload}: {name} = {v}");
        }
        assert!(
            !harness::reference_dir(workload).exists(),
            "{workload}: reference WAL left behind"
        );
        let traced = tiny_run(workload, true);
        assert_eq!(
            untraced.exact_lines(workload),
            traced.exact_lines(workload),
            "{workload}: exact counts moved between runs with one seed"
        );
        assert!(traced.get("pool.apply_p50_us").unwrap_or(0.0) > 0.0);
        assert_eq!(traced.get("pool.settle_waits"), Some(0.0));
        assert_eq!(traced.get("engine.delete_fallbacks"), Some(0.0));
    }

    #[test]
    fn tiny_ingest_passes_its_checks() {
        check_tiny("ingest");
    }

    #[test]
    fn tiny_serve_passes_its_checks() {
        check_tiny("serve");
    }

    #[test]
    fn tiny_analytics_passes_its_checks() {
        check_tiny("analytics");
    }
}

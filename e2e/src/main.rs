//! `e2e` — the repo benchmark.  See `README.md` beside this package for
//! what is measured and why; `BENCHMARK.json` at the repo root names the
//! command, the workloads and the metrics.
//!
//! ```text
//! e2e --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--quick]
//! e2e --selfcheck [--seed <u64>] [--seconds <n>] [--quick]
//! ```
//!
//! A run prints every metric by name with its unit and sample count and
//! ends with one JSON line.  It exits non-zero when an answer was wrong
//! or the benchmark could not run.

mod archive;
mod env;
mod inputs;
mod load;
mod metrics;
mod micro;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use env::Fingerprint;
use metrics::{Better, Def, Workload, END_TO_END, EXACT, PER_LAYER, WORKLOADS};
use workloads::{Options, Outcome};

/// The seed a baseline is recorded with, and the held-out one a claim
/// must also hold on.
const DEFAULT_SEED: u64 = 0xC0FFEE;
pub const HELD_OUT_SEED: u64 = 0x05EE_D0FF;
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

enum Mode {
    Run,
    SelfCheck,
}

struct Cli {
    mode: Mode,
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        mode: Mode::Run,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(Workload::parse(name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{name}' (known: {})", known.join(", "))
                })?);
            }
            "--seed" => {
                let s = value()?;
                cli.seed = parse_u64(s).ok_or_else(|| format!("--seed: '{s}' is not a u64"))?;
            }
            "--seconds" => {
                let s = value()?;
                let secs: f64 = s
                    .parse()
                    .map_err(|_| format!("--seconds: '{s}' is not a number"))?;
                if !(secs > 0.0 && secs <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                cli.seconds = Some(secs);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                }
            }
            "--quick" => cli.quick = true,
            "--selfcheck" => cli.mode = Mode::SelfCheck,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cli)
}

fn print_report(opts: &Options, fp: &Fingerprint, out: &Outcome) {
    println!(
        "# e2e {} seed {:#x} seconds {} trace {} quick {}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.quick
    );
    println!("# why: {}", opts.workload.why());
    println!(
        "# available_parallelism {} load_threads {} server_workers {} profile {}",
        fp.available_parallelism, fp.load_threads, fp.server_workers, fp.profile
    );
    println!(
        "# rustc {} | commit {} | loadavg {}",
        fp.rustc, fp.commit, fp.loadavg
    );
    for (key, text) in &out.info {
        println!("# {key}: {text}");
    }
    let table = |title: &str, defs: &[Def]| {
        println!("{title}");
        for d in defs {
            if let Some(value) = out.values.get(d.name) {
                println!(
                    "  {:<44} {:>16.6} {:<8} n={}",
                    d.name,
                    value,
                    d.unit,
                    out.values.samples(d.name)
                );
            }
        }
    };
    table(
        "end-to-end (measured on untraced windows only):",
        END_TO_END,
    );
    if opts.trace {
        table("per layer:", PER_LAYER);
    }
    println!(
        "attempted {} failed {} (of which slow {})",
        out.tally.attempted, out.tally.failed, out.tally.slow
    );
    for m in &out.tally.messages {
        println!("  failure: {m}");
    }
}

/// Run one workload, print its report and, last, its result line.
/// `Ok(false)` means an answer was wrong.
fn run_and_report(opts: &Options, fp: &Fingerprint) -> Result<bool, String> {
    let out = workloads::run(opts, fp)?;
    let defs = if opts.trace { PER_LAYER } else { END_TO_END };
    let missing = out.values.missing(defs);
    if !missing.is_empty() {
        return Err(format!("metrics not measured: {}", missing.join(", ")));
    }
    print_report(opts, fp, &out);
    if opts.quick {
        println!("# quick: true -- a smoke run, never a baseline");
    }
    let correct = out.tally.correct();
    let attempted = out.tally.attempted.max(1);
    println!(
        "{}",
        metrics::result_line(correct, attempted, out.tally.failed, defs, &out.values)
    );
    Ok(correct)
}

/// By how much `second` is worse than `first`, as a share of `first`.
fn worsening(def: &Def, first: f64, second: f64) -> f64 {
    let delta = match def.better {
        Better::Lower => second - first,
        Better::Higher => first - second,
    };
    delta / first.abs().max(f64::MIN_POSITIVE)
}

/// The value of metric `name` in a result line.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let rest = line.split(&format!("\"{name}\": {{\"value\": ")).nth(1)?;
    rest.split(',').next()?.trim().parse().ok()
}

/// Every workload twice, the second time in reverse order, each run a
/// process of its own as the driver's are (peak memory is per process);
/// two runs of the same code must agree within the benchmark's own
/// bounds, and nothing may fail.
fn selfcheck(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let order: Vec<Workload> = WORKLOADS
        .iter()
        .chain(WORKLOADS.iter().rev())
        .copied()
        .collect();
    let mut seen: Vec<(Workload, String)> = Vec::new();
    let mut ok = true;
    for workload in order {
        let opts = options(cli, workload);
        let mut run = std::process::Command::new(&exe);
        run.args(["--workload", workload.name(), "--trace", "0"])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()]);
        if opts.quick {
            run.arg("--quick");
        }
        let output = run.output().map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or_default().to_string();
        let clean = output.status.success()
            && line.contains("\"correct\": true")
            && line.contains("\"failed\": 0,");
        println!(
            "selfcheck {:<20} run {}",
            workload.name(),
            if clean { "ok" } else { "FAILED" }
        );
        ok &= clean;
        let Some((_, first)) = seen.iter().find(|(w, _)| *w == workload) else {
            seen.push((workload, line));
            continue;
        };
        for d in END_TO_END {
            let a = metric_in(first, d.name).unwrap_or(f64::NAN);
            let b = metric_in(&line, d.name).unwrap_or(f64::NAN);
            let exact = EXACT.contains(&d.name);
            let agree = if exact {
                a.to_bits() == b.to_bits()
            } else {
                worsening(d, a, b).abs() <= d.bound
            };
            let verdict = match (agree, exact) {
                (true, _) => "ok",
                (false, true) => "DIFFERS (must be bit-equal)",
                (false, false) => "DIFFERS beyond the bound",
            };
            println!(
                "selfcheck {:<20} {:<24} {a:>14.6} {b:>14.6} {verdict}",
                workload.name(),
                d.name
            );
            ok &= agree;
        }
    }
    Ok(ok)
}

fn options(cli: &Cli, workload: Workload) -> Options {
    Options {
        workload,
        seed: cli.seed,
        seconds: cli
            .seconds
            .unwrap_or(if cli.quick { 1.0 } else { RUN_SECONDS as f64 }),
        trace: cli.trace,
        quick: cli.quick,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("e2e: {e}");
            eprintln!(
                "usage: e2e --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--quick]"
            );
            eprintln!("       e2e --selfcheck [--seed <u64>] [--seconds <n>] [--quick]");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("e2e: refusing to measure a debug build; run with --release");
        return ExitCode::from(2);
    }
    let fp = Fingerprint::take();
    let outcome = match cli.mode {
        Mode::SelfCheck => selfcheck(&cli).inspect(|&ok| {
            println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
        }),
        Mode::Run => match cli.workload {
            None => Err("--workload is required".to_string()),
            Some(workload) => run_and_report(&options(&cli, workload), &fp),
        },
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: Workload, seed: u64, trace: bool) -> Outcome {
        let opts = Options {
            workload,
            seed,
            seconds: 0.5,
            trace,
            quick: true,
        };
        workloads::run(&opts, &Fingerprint::take()).expect("quick run")
    }

    /// The tier-1/CI smoke entry: all four workloads at 1/50 scale, traced,
    /// every metric of both tables measured, nothing failed.
    #[test]
    fn quick_smoke_runs_every_workload_and_measures_every_metric() {
        for workload in WORKLOADS {
            let out = quick(workload, DEFAULT_SEED, true);
            assert_eq!(
                out.tally.failed,
                0,
                "{}: {:?}",
                workload.name(),
                out.tally.messages
            );
            assert!(out.tally.attempted > 0);
            let missing: Vec<_> = out
                .values
                .missing(END_TO_END)
                .into_iter()
                .chain(out.values.missing(PER_LAYER))
                .collect();
            assert!(missing.is_empty(), "{}: {missing:?}", workload.name());
            for d in END_TO_END {
                // At 1/50 scale the whole index fits the storage cache,
                // so the quick run alone may count no I/O at all.
                let floor = if d.name == "ingest_ios_per_doc" {
                    -1.0
                } else {
                    0.0
                };
                assert!(
                    out.values.get(d.name).is_some_and(|v| v > floor),
                    "{} is never 0",
                    d.name
                );
            }
        }
    }

    /// Same seed, same inputs, same counts: the manifest hash, the chain
    /// heads and the three exact metrics repeat bit for bit; another seed
    /// gives other inputs.
    #[test]
    fn same_seed_repeats_the_manifest_and_the_exact_metrics() {
        let fact = |out: &Outcome, key: &str| {
            out.info
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
                .expect("info line")
        };
        for workload in [Workload::ServeWideBoolean, Workload::IngestRecover] {
            let a = quick(workload, HELD_OUT_SEED, false);
            let b = quick(workload, HELD_OUT_SEED, false);
            assert_eq!(fact(&a, "manifest_fnv1a"), fact(&b, "manifest_fnv1a"));
            assert_eq!(fact(&a, "chain_heads"), fact(&b, "chain_heads"));
            for name in EXACT {
                let (x, y) = (
                    a.values.get(name).expect("a"),
                    b.values.get(name).expect("b"),
                );
                assert_eq!(x.to_bits(), y.to_bits(), "{name} on {}", workload.name());
            }
            let c = quick(workload, DEFAULT_SEED, false);
            assert_ne!(fact(&a, "manifest_fnv1a"), fact(&c, "manifest_fnv1a"));
        }
    }

    #[test]
    fn cli_parses_the_driver_arguments_and_rejects_the_rest() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let cli = parse_cli(&args(
            "--workload serve_ranked --seed 0x10 --seconds 7 --trace 1",
        ))
        .expect("cli");
        assert_eq!(cli.workload, Some(Workload::ServeRanked));
        assert_eq!(
            (cli.seed, cli.seconds, cli.trace, cli.quick),
            (16, Some(7.0), true, false)
        );
        assert!(parse_cli(&args("--workload nope")).is_err());
        assert!(parse_cli(&args("--trace 2")).is_err());
        assert!(parse_cli(&args("--seconds 0")).is_err());
        assert!(parse_cli(&args("--seed")).is_err());
        assert!(parse_cli(&args("--frobnicate")).is_err());
    }

    #[test]
    fn metric_in_reads_a_value_back_from_a_result_line() {
        let mut v = metrics::Values::default();
        for (i, d) in END_TO_END.iter().enumerate() {
            v.set(d.name, 0.5 + i as f64, 1);
        }
        let line = metrics::result_line(true, 9, 0, END_TO_END, &v);
        assert_eq!(metric_in(&line, "setup_s"), Some(0.5));
        assert_eq!(metric_in(&line, "peak_rss_mib"), Some(11.5));
        assert_eq!(metric_in(&line, "no_such_metric"), None);
        assert!(line.contains("\"correct\": true") && line.contains("\"failed\": 0,"));
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = &END_TO_END[1];
        let higher = END_TO_END
            .iter()
            .find(|d| d.better == Better::Higher)
            .expect("a higher-is-better metric");
        assert!((worsening(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!(worsening(lower, 10.0, 9.0) < 0.0);
        assert!((worsening(higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
    }
}

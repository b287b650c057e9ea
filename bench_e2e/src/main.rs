//! `bench_e2e` — the end-to-end K-FAC training benchmark behind
//! `BENCHMARK.json`. See `README.md` beside `Cargo.toml` for the metric
//! glossary, the workloads and how the layers are expected to move them.

mod metrics;
mod probes;
mod serve;
mod stats;
mod trace;
mod train;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use metrics::{num, Mode, Outcome};
use workloads::{Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u64 = 15;
/// Independent set-ups (and timed windows) per end-to-end run.
const ROUNDS: usize = 3;
/// Where a full run commits its numbers, relative to the repository root.
const RESULTS_DIR: &str = "results/bench_e2e";

const USAGE: &str = "usage: bench_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--check] [--repeat N] [--out-dir DIR]
  --workload NAME  run one workload (default: all four)
  --seed N         drives every dataset, model and sampler seed (default 1)
  --seconds S      length of one run's timed windows (default 15)
  --trace 0|1      0: end-to-end metrics, tracing off; 1: per-layer metrics (default: both)
  --check          every workload at 1/20 length with all output checks
  --repeat N       run the set N times in alternating order and compare the runs
  --out-dir DIR    where Chrome-trace files go (default target/bench_e2e)";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<Mode>,
    check: bool,
    repeat: usize,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: None,
        check: false,
        repeat: 1,
        out_dir: PathBuf::from("target/bench_e2e"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => Mode::EndToEnd,
                    "1" => Mode::Traced,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--check" => args.check = true,
            "--repeat" => args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    if args.repeat == 0 {
        return Err("--repeat must be at least 1".to_string());
    }
    if let Some(name) = &args.workload {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {name}; choose from {}", names.join(", ")));
        }
    }
    Ok(args)
}

/// One workload's outcomes in a pass: at most one per mode.
struct WorkloadRun {
    workload: &'static Workload,
    outcomes: Vec<Outcome>,
}

impl WorkloadRun {
    fn outcome(&self, mode: Mode) -> Option<&Outcome> {
        self.outcomes.iter().find(|o| o.mode == mode)
    }
}

fn print_outcome(workload: &Workload, out: &Outcome) {
    println!("\n== {} [{}] strategy {} ==", workload.name, out.mode.name(), out.strategy);
    println!("  why: {}", workload.why);
    for (def, value) in out.metrics() {
        println!("  {:<32} {:>16.4} {:<8} ({} is better)", def.name, value, def.unit, def.better);
    }
    println!("  loss_checksum 0x{:016x}", out.loss_checksum);
    for note in &out.notes {
        println!("  note: {note}");
    }
    for check in &out.checks {
        println!("  [{}] {}", if check.ok { "ok" } else { "FAILED" }, check.what);
        if !check.ok {
            // Also where a harness that keeps only the tail of stderr sees it.
            eprintln!("bench_e2e: {} [{}] FAILED: {}", workload.name, out.mode.name(), check.what);
        }
    }
    if out.failed > 0 {
        eprintln!(
            "bench_e2e: {} [{}] {} of {} operations failed",
            workload.name,
            out.mode.name(),
            out.failed,
            out.attempted
        );
    }
    println!(
        "  attempted {} failed {} => {}",
        out.attempted,
        out.failed,
        if out.correct() { "correct" } else { "INCORRECT" }
    );
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// First line of a command's output, or "unknown" (the driver's checkout is
/// not a git repository, and a result must not depend on either tool).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8_lossy(&o.stdout).lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn header_json(args: &Args) -> String {
    format!(
        "  \"seed\": {},\n  \"seconds\": {},\n  \"world\": {},\n  \"nproc\": {},\n  \"rustc\": {},\n  \
         \"commit\": {},\n",
        args.seed,
        num(args.seconds),
        train::WORLD,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&tool_line("rustc", &["--version"])),
        json_str(&tool_line("git", &["rev-parse", "HEAD"])),
    )
}

fn outcome_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics()
        .map(|(d, v)| {
            format!("        \"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", d.name, num(v), d.unit)
        })
        .collect();
    let checks: Vec<String> = out
        .checks
        .iter()
        .map(|c| format!("        {{\"ok\": {}, \"what\": {}}}", c.ok, json_str(&c.what)))
        .collect();
    let notes: Vec<String> = out.notes.iter().map(|n| format!("        {}", json_str(n))).collect();
    format!(
        "{{\n      \"correct\": {},\n      \"attempted\": {},\n      \"failed\": {},\n      \
         \"strategy\": {},\n      \"loss_checksum\": \"0x{:016x}\",\n      \"metrics\": {{\n{}\n      }},\n      \
         \"checks\": [\n{}\n      ],\n      \"notes\": [\n{}\n      ]\n    }}",
        out.correct(),
        out.attempted,
        out.failed,
        json_str(&out.strategy),
        out.loss_checksum,
        metrics.join(",\n"),
        checks.join(",\n"),
        notes.join(",\n"),
    )
}

fn latest_json(args: &Args, pass: &[WorkloadRun]) -> String {
    let workloads: Vec<String> = pass
        .iter()
        .map(|run| {
            let modes: Vec<String> = run
                .outcomes
                .iter()
                .map(|o| format!("    \"{}\": {}", o.mode.name(), outcome_json(o)))
                .collect();
            format!("  {}: {{\n{}\n  }}", json_str(run.workload.name), modes.join(",\n"))
        })
        .collect();
    format!("{{\n{}  \"workloads\": {{\n{}\n  }}\n}}\n", header_json(args), workloads.join(",\n"))
}

/// Compare the first two passes metric by metric. Timings must agree within
/// the metric's bound, byte and count metrics exactly. Returns the report
/// rows as JSON and whether everything agreed.
fn compare_passes(passes: &[Vec<WorkloadRun>]) -> (String, bool) {
    let mut rows = Vec::new();
    let mut all_ok = true;
    println!("\n== repeat: pass 1 vs pass 2 ==");
    for first in &passes[0] {
        let second = passes[1]
            .iter()
            .find(|r| r.workload.name == first.workload.name)
            .expect("both passes run the same workloads");
        for mode in [Mode::EndToEnd, Mode::Traced] {
            let (Some(a), Some(b)) = (first.outcome(mode), second.outcome(mode)) else { continue };
            for ((def, va), (_, vb)) in a.metrics().zip(b.metrics()) {
                let exact = matches!(def.unit, "bytes" | "count");
                if mode == Mode::Traced && !exact {
                    continue;
                }
                let scale = 0.5 * (va.abs() + vb.abs());
                let diff = if scale > 0.0 { (va - vb).abs() / scale } else { 0.0 };
                let ok = if exact { va == vb } else { diff <= def.bound };
                all_ok &= ok;
                println!(
                    "  {:<20} {:<28} {:>14.4} {:>14.4}  diff {:>6.2} %  bound {:>5.1} %  {}",
                    first.workload.name,
                    def.name,
                    va,
                    vb,
                    diff * 1e2,
                    def.bound * 1e2,
                    if ok { "ok" } else { "DISAGREE" }
                );
                rows.push(format!(
                    "    {{\"workload\": \"{}\", \"metric\": \"{}\", \"first\": {}, \"second\": {}, \
                     \"diff\": {}, \"bound\": {}, \"ok\": {}}}",
                    first.workload.name,
                    def.name,
                    num(va),
                    num(vb),
                    num(diff),
                    num(def.bound),
                    ok
                ));
            }
        }
    }
    (rows.join(",\n"), all_ok)
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn run(args: &Args) -> Result<bool, String> {
    let selected: Vec<&'static Workload> = WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
        .collect();
    let modes: &[Mode] = match args.trace {
        Some(Mode::EndToEnd) => &[Mode::EndToEnd],
        Some(Mode::Traced) => &[Mode::Traced],
        None => &[Mode::EndToEnd, Mode::Traced],
    };
    let (seconds, rounds) =
        if args.check { (args.seconds / 20.0, 1) } else { (args.seconds, ROUNDS) };

    let mut passes: Vec<Vec<WorkloadRun>> = Vec::new();
    for pass in 0..args.repeat {
        // A B C D, then D C B A: slow drift of the machine does not always
        // land on the same workload.
        let mut order = selected.clone();
        if pass % 2 == 1 {
            order.reverse();
        }
        let mut runs = Vec::new();
        for workload in order {
            let mut outcomes = Vec::new();
            for &mode in modes {
                let (outcome, spans) = (workload.run)(mode, args.seed, seconds, rounds);
                print_outcome(workload, &outcome);
                if !spans.is_empty() {
                    let path = args.out_dir.join(format!("{}.trace.json", workload.name));
                    write_file(&path, &trace::chrome_trace(&spans))?;
                }
                outcomes.push(outcome);
            }
            runs.push(WorkloadRun { workload, outcomes });
        }
        runs.sort_by_key(|r| WORKLOADS.iter().position(|w| w.name == r.workload.name));
        passes.push(runs);
    }

    let mut ok = passes.iter().flatten().flat_map(|r| &r.outcomes).all(Outcome::correct);
    // Only a full-length run of everything is worth committing.
    let full = args.workload.is_none() && args.trace.is_none() && !args.check;
    if full {
        let last = passes.last().expect("at least one pass");
        write_file(&Path::new(RESULTS_DIR).join("latest.json"), &latest_json(args, last))?;
    }
    if passes.len() >= 2 {
        let (rows, agree) = compare_passes(&passes);
        ok &= agree;
        if full {
            let json = format!(
                "{{\n{}  \"agree\": {agree},\n  \"rows\": [\n{rows}\n  ]\n}}\n",
                header_json(args)
            );
            write_file(&Path::new(RESULTS_DIR).join("repeat.json"), &json)?;
        }
    }
    // The driver's contract: one workload, one mode, result object last.
    if let ([run], [_]) = (passes[0].as_slice(), modes) {
        if passes.len() == 1 {
            println!("{}", run.outcomes[0].result_line());
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    // These switch the comm engine, the kernel tier and the eigensolve
    // queue behind the benchmark's back; a number measured under one is not
    // the number of the defaults.
    let overrides: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("KAISA_"))
        .collect();
    if !overrides.is_empty() {
        eprintln!("bench_e2e: refusing to run with {} set", overrides.join(", "));
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("bench_e2e: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("bench_e2e: an output check failed or the passes disagree (see above)");
            ExitCode::FAILURE
        }
        Err(why) => {
            eprintln!("bench_e2e: {why}");
            ExitCode::FAILURE
        }
    }
}

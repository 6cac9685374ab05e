//! `perfbench`: the end-to-end and per-layer benchmark of the tracefill
//! workspace.
//!
//! ```text
//! perfbench --workload <suite-steady|gen-thrash|campaign-fig8> --seed <n>
//!           --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! A run repeats whole rounds of one workload until `--seconds` have
//! passed (and at least [`Sizes::min_rounds`] rounds ran), checks every
//! cell's output against an independent interpreter run and the method's
//! properties, and prints one JSON object as its last line. With
//! `--trace 0` the object carries the end-to-end metrics; with `--trace 1`
//! the same rounds run inside spans, the layer replays of [`layers`] run
//! afterwards, and the object carries the per-layer metrics. See
//! `perfbench/README.md` for what each metric means and which end-to-end
//! metric each layer metric should move.

mod campaign;
mod cells;
mod checks;
mod host;
mod layers;
mod round;
mod trace;

use round::{Round, Sizes};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use tracefill_util::Json;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// The workloads, by the names `BENCHMARK.json` gives them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 15 paper kernels, all passes, LRU, warmed trace cache.
    SuiteSteady,
    /// 2,000-block `gen` programs that overflow the trace cache.
    GenThrash,
    /// The Figure 8 grid through the campaign engine.
    CampaignFig8,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "suite-steady" => Ok(Workload::SuiteSteady),
            "gen-thrash" => Ok(Workload::GenThrash),
            "campaign-fig8" => Ok(Workload::CampaignFig8),
            other => Err(format!(
                "unknown workload `{other}` (expected suite-steady, gen-thrash, campaign-fig8)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SuiteSteady => "suite-steady",
            Workload::GenThrash => "gen-thrash",
            Workload::CampaignFig8 => "campaign-fig8",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut quick = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()?)?),
            "--seed" => seed = Some(parse_num(flag, &value()?)?),
            "--seconds" => seconds = Some(parse_num(flag, &value()?)?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--quick" => quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        quick,
    })
}

fn parse_num(flag: &str, v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("{flag} takes a whole number, not `{v}`"))
}

/// Scratch directory for campaign stores and span files, inside the
/// checkout the benchmark runs from.
fn scratch_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

/// A file name in `dir` that no other store of this process uses.
pub fn fresh_file(dir: &std::path::Path, stem: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    dir.join(format!("{stem}-{}-{n}.jsonl", std::process::id()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <suite-steady|gen-thrash|campaign-fig8> \
                 --seed <n> --seconds <s> --trace <0|1> [--quick]"
            );
            return ExitCode::from(2);
        }
    };
    let sizes = if args.quick {
        Sizes::quick()
    } else {
        Sizes::full()
    };
    let dir = scratch_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::from(1);
    }
    let out = match run(&args, &sizes, &dir) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    println!("{}", out.info.dump());
    println!("{}", out.result.dump());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// What one invocation prints.
struct Output {
    /// Host, counts digest, rounds, reference figures (second-last line).
    pub info: Json,
    /// `{"correct", "attempted", "failed", "metrics"}` (last line).
    pub result: Json,
    /// No output check failed.
    pub correct: bool,
}

/// Runs one workload for `args.seconds` and assembles its output.
fn run(args: &Args, sizes: &Sizes, dir: &std::path::Path) -> Result<Output, String> {
    let specs = match args.workload {
        Workload::SuiteSteady => cells::suite_cells(args.seed, sizes),
        Workload::GenThrash => cells::gen_cells(args.seed, sizes),
        Workload::CampaignFig8 => Ok(Vec::new()),
    }?;
    run_cells(args, sizes, dir, &specs)
}

/// Runs the rounds of `args.workload` over `specs` (the cells of
/// suite-steady and gen-thrash; empty for campaign-fig8).
fn run_cells(
    args: &Args,
    sizes: &Sizes,
    dir: &std::path::Path,
    specs: &[cells::CellSpec],
) -> Result<Output, String> {
    let mut tr = Tracer::new(args.trace);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    // Whole rounds only: stop when another round of the last one's length
    // would overrun the budget.
    let mut last = Duration::ZERO;
    while rounds.len() < sizes.min_rounds || start.elapsed() + last <= budget {
        let t = Instant::now();
        let r = tr.span("round", |tr| match args.workload {
            Workload::CampaignFig8 => campaign::run_round(args.seed, sizes, dir, tr),
            _ => cells::run_round(specs, tr),
        });
        last = t.elapsed();
        rounds.push(r);
    }
    let rounds_s = start.elapsed().as_secs_f64();

    let mut mismatches: Vec<String> = rounds.iter().flat_map(|r| r.mismatches.clone()).collect();
    let digest = rounds[0].counts.digest();
    for (i, r) in rounds.iter().enumerate().skip(1) {
        if r.counts.digest() != digest {
            mismatches.push(format!(
                "round {i}: simulated counts differ from round 0 ({} vs {digest})",
                r.counts.digest()
            ));
        }
    }
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();

    let metrics = if args.trace {
        let (m, bad) = layers::per_layer(args.workload, args.seed, sizes, &rounds, &mut tr, dir);
        mismatches.extend(bad);
        m
    } else {
        round::end_to_end(&rounds)
    };
    let mut metric_obj = Json::object();
    for (name, value, unit) in &metrics {
        metric_obj = metric_obj.with(
            name,
            Json::object().with("value", *value).with("unit", *unit),
        );
    }

    let mut info = Json::object()
        .with("workload", args.workload.name())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("quick", args.quick)
        .with("host", host::describe())
        .with("rounds", rounds.len() as u64)
        .with("cells_per_round", rounds[0].attempted)
        .with("counts_digest", format!("{digest:016x}"))
        .with("rounds_s", rounds_s)
        .with(
            "round_wall_s",
            Json::Arr(rounds.iter().map(|r| r.wall_s.into()).collect()),
        );
    if let Some((tail, n, pct)) = round::cell_tail(&rounds) {
        info = info.with(
            "cell_tail_s",
            Json::object()
                .with("value", tail)
                .with("percentile", pct)
                .with("samples", n as u64),
        );
    }
    for (name, value) in &rounds[0].reference {
        info = info.with(name, *value);
    }
    if args.trace {
        let path = dir.join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
        match std::fs::write(&path, tr.to_json().dump()) {
            Ok(()) => info = info.with("spans_file", path.display().to_string()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        eprint!("{}", tr.self_time_table());
    }

    for m in &mismatches {
        eprintln!("perfbench: MISMATCH {m}");
    }
    let correct = mismatches.is_empty();
    let result = Json::object()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metric_obj);
    Ok(Output {
        info,
        result,
        correct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_args(workload: &str, seed: u64, trace: bool) -> Args {
        let argv: Vec<String> = [
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0",
            "--trace",
            if trace { "1" } else { "0" },
            "--quick",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        parse_args(&argv).unwrap()
    }

    fn quick(workload: &str, seed: u64, trace: bool) -> Output {
        let dir = scratch_dir();
        std::fs::create_dir_all(&dir).unwrap();
        run(&quick_args(workload, seed, trace), &Sizes::quick(), &dir).unwrap()
    }

    /// The metric names `BENCHMARK.json` declares in `section`.
    fn declared(section: &str) -> Vec<String> {
        let text = std::fs::read_to_string("../BENCHMARK.json").unwrap();
        let spec = Json::parse(&text).unwrap();
        spec.get(section)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn every_workload_runs_clean_and_prints_the_declared_metrics() {
        for w in ["suite-steady", "gen-thrash", "campaign-fig8"] {
            for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let out = quick(w, 5, trace);
                assert!(out.correct, "{w}: an output check failed");
                assert_eq!(
                    out.result.get("failed").and_then(Json::as_u64),
                    Some(0),
                    "{w}"
                );
                let metrics = out.result.get("metrics").and_then(Json::as_obj).unwrap();
                let names: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
                assert_eq!(names, declared(section), "{w} trace={trace}");
                for (name, m) in metrics {
                    let v = m.get("value").and_then(Json::as_f64);
                    assert!(v.is_some_and(f64::is_finite), "{w}: {name} = {m:?}");
                }
            }
        }
    }

    #[test]
    fn a_cell_error_makes_the_run_incorrect() {
        let sizes = Sizes::quick();
        let mut specs = cells::gen_cells(3, &sizes).unwrap();
        // A window with no cycles to run stops short of the exit.
        specs[1].warm = 0;
        specs[1].window = 0;
        let dir = scratch_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let out = run_cells(&quick_args("gen-thrash", 3, false), &sizes, &dir, &specs).unwrap();
        assert!(!out.correct);
        assert_eq!(
            out.result.get("correct").and_then(Json::as_bool),
            Some(false)
        );
        let rounds = out.info.get("rounds").and_then(Json::as_u64).unwrap();
        assert_eq!(
            out.result.get("failed").and_then(Json::as_u64),
            Some(rounds)
        );
    }

    #[test]
    fn simulated_counts_repeat_for_a_seed() {
        for w in ["suite-steady", "gen-thrash", "campaign-fig8"] {
            let a = quick(w, 9, false).info;
            let b = quick(w, 9, false).info;
            assert_eq!(a.get("counts_digest"), b.get("counts_digest"), "{w}");
        }
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let args = |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "gen-thrash", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "gen-thrash", "--seed", "x", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "gen-thrash",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "gen-thrash",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "1"
        ])
        .is_ok());
    }
}

//! Per-layer metrics of a traced run: host time of each layer, measured by
//! replaying the workload's own programs and retire stream through the
//! public functions of `isa`, `core`, `uarch`, `util` and `harness`, plus
//! the simulated counts of the run's rounds.

use crate::cells::{gen_program_seed, gen_source, Source};
use crate::checks;
use crate::round::{median, Counts, ProgramTime, Round, Sizes};
use crate::trace::Tracer;
use crate::Workload;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tracefill_core::builder::{build_segments, FillInput};
use tracefill_core::config::{ClusterConfig, FillConfig};
use tracefill_core::opt::{apply_all, apply_all_telemetry, strict_check};
use tracefill_core::{OptConfig, Segment, TraceCache, TraceCacheConfig};
use tracefill_harness::report::fig8_table;
use tracefill_harness::{ResultStore, RunRecord, RunStatus};
use tracefill_isa::interp::Interp;
use tracefill_isa::Program;
use tracefill_policy::ReplacementKind;
use tracefill_sim::{SimConfig, Simulator};
use tracefill_uarch::hierarchy::{MemHierarchy, Side};
use tracefill_uarch::pht::MultiBranchPredictor;
use tracefill_util::{Json, Registry};

/// One metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Median seconds of `reps` runs of `f`.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&v)
}

/// The programs a workload runs, for the replays.
fn workload_sources(w: Workload, seed: u64, sizes: &Sizes) -> Vec<Source> {
    match w {
        Workload::GenThrash => vec![gen_source(
            gen_program_seed(seed, 0, sizes),
            sizes.gen_blocks,
            sizes.gen_warm + sizes.gen_window,
        )],
        Workload::SuiteSteady | Workload::CampaignFig8 => tracefill_workloads::suite()
            .iter()
            .map(|b| Source::kernel(b, sizes.suite_warm + sizes.suite_window))
            .collect(),
    }
}

/// The retire stream of `n` instructions of each program, as the fill
/// unit receives it, with the store address of each retired store.
fn retire_stream(progs: &[Program], n: usize) -> (Vec<Vec<FillInput>>, Vec<Option<u32>>) {
    let mut streams = Vec::new();
    let mut stores = Vec::new();
    for p in progs {
        let mut it = Interp::new(p);
        let mut s = Vec::with_capacity(n);
        for _ in 0..n {
            let Ok(r) = it.step() else { break };
            if r.halt.is_some() {
                break;
            }
            s.push(FillInput {
                pc: r.pc,
                instr: r.instr,
                taken: r.taken,
                promoted: None,
                fetch_miss_head: false,
            });
            stores.push(r.store.map(|(addr, _, _)| addr));
        }
        streams.push(s);
    }
    (streams, stores)
}

/// Replays the segment stream through a fresh trace cache, lookups and
/// the inserts of the lines they missed timed apart in chunks. Returns
/// (lookup s, lookups, insert s, inserts, failed checks).
fn tcache_replay(
    segs: &[Arc<Segment>],
    policy: ReplacementKind,
) -> (f64, u64, f64, u64, Vec<String>) {
    const CHUNK: usize = 64;
    let mut tc = TraceCache::new(TraceCacheConfig {
        policy,
        ..TraceCacheConfig::default()
    });
    let (mut look_s, mut ins_s, mut lookups, mut inserts) = (0.0, 0.0, 0u64, 0u64);
    let mut missed = Vec::with_capacity(CHUNK);
    for chunk in segs.chunks(CHUNK) {
        missed.clear();
        let t = Instant::now();
        for s in chunk {
            if black_box(tc.lookup(s.start_pc, &[true, false, true])).is_none() {
                missed.push(s);
            }
        }
        look_s += t.elapsed().as_secs_f64();
        lookups += chunk.len() as u64;
        let t = Instant::now();
        for s in &missed {
            black_box(tc.insert(Arc::clone(s)));
        }
        ins_s += t.elapsed().as_secs_f64();
        inserts += missed.len() as u64;
    }
    let bad = checks::check_tcache(&tc.stats(), &tc.policy_counters(), Some(lookups));
    (look_s, lookups, ins_s, inserts, bad)
}

/// A short simulation of one program, for programs the workload's own
/// cells do not cover: host time per cycle, its L1 counts and a row.
struct SweepCell {
    time: ProgramTime,
    counts: Counts,
    new_s: f64,
    warm_s: f64,
    record: RunRecord,
}

fn sweep_cell(src: &Source, sizes: &Sizes, tr: &mut Tracer) -> Result<SweepCell, String> {
    let prog = src.build()?;
    let t = Instant::now();
    let mut sim = Simulator::new(&prog, SimConfig::with_opts(OptConfig::all()));
    let new_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    sim.run_instrs(sizes.camp_warm).map_err(|e| e.to_string())?;
    let warm_s = t.elapsed().as_secs_f64();
    let before = sim.report();
    let t = Instant::now();
    tr.span("sweep.window", |_| sim.run_instrs(sizes.camp_window))
        .map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    let after = sim.report();
    let counts = Counts {
        l1i: (
            after.caches.0.hits - before.caches.0.hits,
            after.caches.0.misses - before.caches.0.misses,
        ),
        l1d: (
            after.caches.1.hits - before.caches.1.hits,
            after.caches.1.misses - before.caches.1.misses,
        ),
        ..Counts::default()
    };
    let cycles = after.stats.cycles - before.stats.cycles;
    let retired = after.stats.retired - before.stats.retired;
    let record = RunRecord {
        run_id: String::new(),
        campaign: "perfbench-replay".to_string(),
        bench: src.program_name().to_string(),
        opt_label: "all".to_string(),
        fill_latency: 1,
        seed: 0,
        policy: "lru".to_string(),
        controller: "off".to_string(),
        status: RunStatus::Ok,
        ipc: retired as f64 / cycles.max(1) as f64,
        window_cycles: cycles,
        window_retired: retired,
        stats: after.stats,
        cpi: after.cpi.delta_since(&before.cpi),
        metrics: after.metrics,
        repair: None,
        wall_ms: (secs * 1e3) as u64,
    };
    Ok(SweepCell {
        time: ProgramTime {
            program: src.program_name().to_string(),
            secs,
            cycles,
        },
        counts,
        new_s,
        warm_s,
        record,
    })
}

/// Grid-shaped rows (each kernel × {none, all} × latency {1, 5, 10})
/// made from the sweep's rows, for the store and report replays. Their
/// IPCs are scaled only so the report has gains to render; the replays
/// measure host time, never these values.
fn grid_rows(records: &[RunRecord]) -> Vec<RunRecord> {
    let mut out = Vec::new();
    for r in records {
        for (opt, scale) in [("none", 0.85), ("all", 1.0)] {
            for lat in [1u32, 5, 10] {
                let mut x = r.clone();
                x.opt_label = opt.to_string();
                x.fill_latency = lat;
                x.ipc = r.ipc * scale / f64::from(lat).sqrt();
                x.run_id = format!("{};opts={opt};lat={lat}", r.bench);
                out.push(x);
            }
        }
    }
    out
}

/// The per-layer metrics of a traced run, and the output checks the
/// replays failed.
pub fn per_layer(
    w: Workload,
    seed: u64,
    sizes: &Sizes,
    rounds: &[Round],
    tr: &mut Tracer,
    dir: &Path,
) -> (Vec<Metric>, Vec<String>) {
    tr.span("layers", |tr| replay(w, seed, sizes, rounds, tr, dir))
}

fn replay(
    w: Workload,
    seed: u64,
    sizes: &Sizes,
    rounds: &[Round],
    tr: &mut Tracer,
    dir: &Path,
) -> (Vec<Metric>, Vec<String>) {
    let reps = sizes.replay_reps;
    let mut m: Vec<Metric> = Vec::new();
    let mut bad: Vec<String> = Vec::new();
    let sources = workload_sources(w, seed, sizes);

    // isa: assembler and interpreter.
    let mut progs = Vec::new();
    let asm_s = tr.span("isa.asm", |_| {
        time_median(reps, || {
            progs = sources.iter().filter_map(|s| s.build().ok()).collect();
        })
    });
    m.push(("isa.asm_s".into(), asm_s, "s"));
    let n = sizes.replay_instrs;
    let (streams, stores) = retire_stream(&progs, n);
    let instrs: usize = streams.iter().map(Vec::len).sum();
    let interp_s = tr.span("isa.interp", |_| {
        time_median(reps, || {
            for p in &progs {
                let mut it = Interp::new(p);
                for _ in 0..n {
                    match it.step() {
                        Ok(r) if r.halt.is_none() => {
                            black_box(r);
                        }
                        _ => break,
                    }
                }
            }
        })
    });
    m.push((
        "isa.interp.ns_per_instr".into(),
        interp_s * 1e9 / instrs as f64,
        "ns/instr",
    ));

    // core: segment building, each pass, strict verify, trace cache.
    let fill_cfg = FillConfig::default();
    let mut segs: Vec<Segment> = Vec::new();
    let build_s = tr.span("core.build", |_| {
        time_median(reps, || {
            segs = streams
                .iter()
                .flat_map(|s| build_segments(s, &fill_cfg))
                .collect();
        })
    });
    let nseg = segs.len().max(1) as f64;
    m.push((
        "core.build.ns_per_seg".into(),
        build_s * 1e9 / nseg,
        "ns/seg",
    ));
    let clusters = ClusterConfig::default();
    for (pass, opts) in [
        ("moves", OptConfig::only_moves()),
        ("reassoc", OptConfig::only_reassoc()),
        ("scadd", OptConfig::only_scadd()),
        ("placement", OptConfig::only_placement()),
    ] {
        let s = tr.span("core.opt", |_| {
            let runs: Vec<f64> = (0..reps)
                .map(|_| {
                    let mut work = segs.clone();
                    let t = Instant::now();
                    for seg in &mut work {
                        black_box(apply_all(seg, &opts, &clusters));
                    }
                    t.elapsed().as_secs_f64()
                })
                .collect();
            median(&runs)
        });
        m.push((
            format!("core.opt.{pass}.ns_per_seg"),
            s * 1e9 / nseg,
            "ns/seg",
        ));
    }
    let mut telemetry = Registry::new();
    let optimized: Vec<Arc<Segment>> = segs
        .iter()
        .map(|s| {
            let mut s = s.clone();
            apply_all_telemetry(&mut s, &OptConfig::all(), &clusters, &mut telemetry);
            Arc::new(s)
        })
        .collect();
    let verify_s = tr.span("core.verify", |_| {
        time_median(reps, || {
            for s in &optimized {
                if let Err(e) = strict_check(s) {
                    bad.push(format!(
                        "strict verify rejected segment at {:#x}: {e}",
                        s.start_pc
                    ));
                }
            }
        })
    });
    m.push((
        "core.verify.ns_per_seg".into(),
        verify_s * 1e9 / nseg,
        "ns/seg",
    ));
    for policy in [
        ReplacementKind::Lru,
        ReplacementKind::Srrip,
        ReplacementKind::Trrip,
    ] {
        let runs: Vec<(f64, f64)> = tr.span("core.tcache", |_| {
            (0..reps)
                .map(|_| {
                    let (ls, ln, is, inn, b) = tcache_replay(&optimized, policy);
                    bad.extend(b);
                    (ls * 1e9 / ln.max(1) as f64, is * 1e9 / inn.max(1) as f64)
                })
                .collect()
        });
        let name = policy.name();
        let look: Vec<f64> = runs.iter().map(|r| r.0).collect();
        let ins: Vec<f64> = runs.iter().map(|r| r.1).collect();
        m.push((
            format!("core.tcache.lookup_ns.{name}"),
            median(&look),
            "ns/op",
        ));
        m.push((
            format!("core.tcache.insert_ns.{name}"),
            median(&ins),
            "ns/op",
        ));
    }

    // uarch: predictor and memory hierarchy over the retire stream.
    let branches: Vec<(u32, bool)> = streams
        .iter()
        .flatten()
        .filter_map(|f| f.taken.map(|t| (f.pc, t)))
        .collect();
    let pht_s = tr.span("uarch.pht", |_| {
        time_median(reps, || {
            let mut p = MultiBranchPredictor::default();
            for &(pc, taken) in &branches {
                let pred = p.predict(pc, 0);
                p.update(pred, taken);
                p.push_history(taken);
            }
            black_box(p);
        })
    });
    m.push((
        "uarch.pht.ns_per_access".into(),
        pht_s * 1e9 / branches.len().max(1) as f64,
        "ns/op",
    ));
    let accesses = instrs + stores.iter().flatten().count();
    let hier_s = tr.span("uarch.hierarchy", |_| {
        time_median(reps, || {
            let mut h = MemHierarchy::new(SimConfig::default().hierarchy);
            let mut lat = 0u64;
            for (f, st) in streams.iter().flatten().zip(&stores) {
                lat += u64::from(h.access(Side::Instr, f.pc));
                if let Some(a) = st {
                    lat += u64::from(h.access(Side::Data, *a));
                }
            }
            black_box(lat);
        })
    });
    m.push((
        "uarch.hierarchy.ns_per_access".into(),
        hier_s * 1e9 / accesses.max(1) as f64,
        "ns/op",
    ));

    // util: the metrics registry on the fill unit's counter names.
    let names: Vec<String> = telemetry.counters().map(|(k, _)| k.to_string()).collect();
    let incs = 100 * n;
    let inc_s = tr.span("util.metrics", |_| {
        time_median(reps, || {
            let mut reg = Registry::new();
            for i in 0..incs {
                reg.inc(&names[i % names.len()]);
            }
            black_box(reg);
        })
    });
    m.push((
        "util.metrics.inc_ns".into(),
        inc_s * 1e9 / incs as f64,
        "ns/op",
    ));

    // sim: a short simulation of every program, for the programs the
    // rounds did not run and for the rows the harness replays use.
    let mut programs: Vec<ProgramTime> = rounds.iter().flat_map(|r| r.programs.clone()).collect();
    let mut sweep_sources: Vec<Source> = tracefill_workloads::suite()
        .iter()
        .map(|b| Source::kernel(b, sizes.camp_warm + sizes.camp_window))
        .collect();
    sweep_sources.push(gen_source(
        gen_program_seed(seed, 0, sizes),
        sizes.gen_blocks,
        sizes.camp_warm + sizes.camp_window,
    ));
    let mut sweep = Vec::new();
    for src in &sweep_sources {
        match tr.span("sweep", |tr| sweep_cell(src, sizes, tr)) {
            Ok(c) => sweep.push(c),
            Err(e) => bad.push(format!("sweep {}: {e}", src.program_name())),
        }
    }
    for c in &sweep {
        if !programs.iter().any(|p| p.program == c.time.program) {
            programs.push(c.time.clone());
        }
    }

    // util.json and harness: rows made from the sweep's kernel cells,
    // dumped, parsed, appended to a store, reloaded and rendered.
    let records: Vec<RunRecord> = sweep
        .iter()
        .filter(|c| c.time.program != "gen")
        .map(|c| c.record.clone())
        .collect();
    let grid = grid_rows(&records);
    let docs: Vec<String> = grid.iter().map(|r| r.to_json().dump()).collect();
    let bytes: usize = docs.iter().map(String::len).sum();
    let dump_s = tr.span("util.json.dump", |_| {
        time_median(reps, || {
            for r in &grid {
                black_box(r.to_json().dump());
            }
        })
    });
    let parse_s = tr.span("util.json.parse", |_| {
        time_median(reps, || {
            for d in &docs {
                black_box(Json::parse(d).expect("dumped JSON parses"));
            }
        })
    });
    m.push((
        "util.json.dump_mbps".into(),
        bytes as f64 / dump_s / 1e6,
        "MB/s",
    ));
    m.push((
        "util.json.parse_mbps".into(),
        bytes as f64 / parse_s / 1e6,
        "MB/s",
    ));
    let path = crate::fresh_file(dir, "replay");
    let mut appends = Vec::new();
    let mut loads = Vec::new();
    let mut reports = Vec::new();
    for _ in 0..reps {
        let _ = std::fs::remove_file(&path);
        let Ok(mut store) = ResultStore::open(&path) else {
            bad.push(format!("cannot open {}", path.display()));
            break;
        };
        let t = Instant::now();
        tr.span("harness.store.append", |_| {
            for r in &grid {
                if let Err(e) = store.append(r) {
                    bad.push(format!("store append: {e}"));
                }
            }
        });
        appends.push(t.elapsed().as_secs_f64() * 1e6 / grid.len().max(1) as f64);
        let t = Instant::now();
        let loaded = tr.span("harness.store.load", |_| store.load());
        loads.push(t.elapsed().as_secs_f64() * 1e3);
        match loaded {
            Ok(rows) if rows.len() == grid.len() => {
                let t = Instant::now();
                black_box(tr.span("harness.report", |_| fig8_table(&rows)));
                reports.push(t.elapsed().as_secs_f64() * 1e3);
            }
            Ok(rows) => bad.push(format!(
                "store reloaded {} of {} rows",
                rows.len(),
                grid.len()
            )),
            Err(e) => bad.push(format!("store reload: {e}")),
        }
    }
    let _ = std::fs::remove_file(&path);
    let med = |v: &[f64]| if v.is_empty() { f64::NAN } else { median(v) };
    m.push(("harness.store.append_us".into(), med(&appends), "us"));
    m.push(("harness.store.load_ms".into(), med(&loads), "ms"));
    m.push(("harness.report_ms".into(), med(&reports), "ms"));
    let busy: Vec<f64> = rounds.iter().map(|r| r.busy_pct).collect();
    m.push(("harness.pool.busy_pct".into(), median(&busy), "%"));

    // sim: set-up and window time per cell, and host time per cycle.
    let totals = tr.totals();
    let per_cell = |name: &str| totals.get(name).map(|t| t.total_s / t.count as f64);
    let sweep_mean = |f: &dyn Fn(&SweepCell) -> f64| {
        sweep.iter().map(f).sum::<f64>() / sweep.len().max(1) as f64
    };
    let new_s = per_cell("sim.new").unwrap_or_else(|| sweep_mean(&|c| c.new_s));
    let warm_s = per_cell("sim.warmup").unwrap_or_else(|| sweep_mean(&|c| c.warm_s));
    let window_s = per_cell("sim.window").unwrap_or_else(|| sweep_mean(&|c| c.time.secs));
    m.push(("sim.new_ms".into(), new_s * 1e3, "ms"));
    m.push(("sim.warmup_s".into(), warm_s, "s"));
    m.push(("sim.window_s".into(), window_s, "s"));
    let mut names: Vec<&str> = tracefill_workloads::names();
    names.push("gen");
    for name in names {
        let (secs, cycles) = programs
            .iter()
            .filter(|p| p.program == name)
            .fold((0.0, 0u64), |(s, c), p| (s + p.secs, c + p.cycles));
        m.push((
            format!("sim.us_per_cycle.{name}"),
            secs * 1e6 / cycles.max(1) as f64,
            "us/cycle",
        ));
    }

    // Simulated counts of the rounds; campaign rows carry no L1 counts,
    // so campaign-fig8 takes them from the sweep's kernel cells.
    let mut counts = rounds[0].counts.clone();
    if w == Workload::CampaignFig8 {
        for c in sweep.iter().filter(|c| c.time.program != "gen") {
            counts.l1i.0 += c.counts.l1i.0;
            counts.l1i.1 += c.counts.l1i.1;
            counts.l1d.0 += c.counts.l1d.0;
            counts.l1d.1 += c.counts.l1d.1;
        }
    }
    m.extend(counts.metrics());
    (m, bad)
}

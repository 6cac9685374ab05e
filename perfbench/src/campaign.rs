//! campaign-fig8: `harness::run_campaign` over the Figure 8 grid with
//! short windows, into a store that is new for every round, then the
//! store reloaded and `report::fig8_table` rendered.

use crate::checks;
use crate::host::nproc;
use crate::round::{Counts, ProgramTime, Round, Sizes};
use crate::trace::Tracer;
use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;
use tracefill_harness::report::{aggregates, fig8_table};
use tracefill_harness::runner::execute;
use tracefill_harness::{run_campaign, CampaignSpec, ResultStore, RunDescriptor, RunStatus};
use tracefill_sim::SimConfig;

/// The paper's combined IPC gain of all four optimizations (Figure 8).
const PAPER_FIG8_GAIN_PCT: f64 = 18.0;

/// The Figure 8 grid (15 kernels × {none, all} × fill latency {1, 5, 10})
/// with short windows. The seed only changes the run ids.
pub fn spec(seed: u64, sizes: &Sizes) -> CampaignSpec {
    CampaignSpec {
        name: "perfbench-fig8".to_string(),
        seeds: vec![seed],
        warmup: sizes.camp_warm,
        budget: sizes.camp_window,
        ..CampaignSpec::fig8()
    }
}

/// The set-up each grid cell pays before its window (assemble,
/// `Simulator::new`, warm-up), for the fill-latency-1 cells: each is run
/// through the harness's own `execute` with an empty window, one after
/// another. Returns the host seconds and the rows that did not end `Ok`.
fn grid_setup(spec: &CampaignSpec, tr: &mut Tracer) -> (f64, Vec<String>) {
    let t0 = Instant::now();
    let mut bad = Vec::new();
    for desc in spec.expand().into_iter().filter(|d| d.fill_latency == 1) {
        let desc = RunDescriptor { budget: 0, ..desc };
        let rec = tr.span("harness.setup", |_| execute(&desc, &spec.name, None));
        if rec.status != RunStatus::Ok {
            bad.push(format!("{}: set-up ended {:?}", desc.run_id, rec.status));
        }
    }
    (t0.elapsed().as_secs_f64(), bad)
}

/// Runs the grid once into a fresh store, reloads it and renders the
/// report.
pub fn run_round(seed: u64, sizes: &Sizes, dir: &Path, tr: &mut Tracer) -> Round {
    let spec = spec(seed, sizes);
    let expected: BTreeSet<String> = spec.expand().into_iter().map(|d| d.run_id).collect();
    let path = crate::fresh_file(dir, "fig8");
    let mut r = Round {
        attempted: expected.len() as u64,
        ..Round::default()
    };
    let _ = std::fs::remove_file(&path);
    let mut store = match ResultStore::open(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot open store {}: {e}", path.display());
            r.failed = r.attempted;
            return r;
        }
    };
    let (setup_s, setup_bad) = grid_setup(&spec, tr);
    r.setup_s = setup_s;
    let jobs = nproc();
    let t0 = Instant::now();
    let summary = tr.span("harness.campaign", |_| {
        run_campaign(&spec, &mut store, jobs, false)
    });
    let campaign_s = t0.elapsed().as_secs_f64();
    let summary = match summary {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: campaign store error: {e}");
            r.failed = r.attempted;
            return r;
        }
    };
    let loaded = tr.span("harness.store.load", |_| store.load_counted());
    let (records, malformed) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: cannot reload {}: {e}", path.display());
            r.failed = r.attempted;
            return r;
        }
    };
    let table = tr.span("harness.report", |_| fig8_table(&records));
    r.wall_s = t0.elapsed().as_secs_f64();
    std::hint::black_box(table);
    let _ = std::fs::remove_file(&path);

    r.cells_wall_s = campaign_s;
    let fetch_width = SimConfig::default().fetch_width;
    let mut failed_ids = BTreeSet::new();
    for rec in &records {
        let m = checks::check_row(rec, spec.budget, fetch_width);
        if !m.is_empty() {
            failed_ids.insert(rec.run_id.clone());
        }
        r.mismatches.extend(m);
        r.cell_s.push(rec.wall_ms as f64 / 1e3);
        r.retired += rec.stats.retired;
        r.cycles += rec.stats.cycles;
        r.window_retired += rec.window_retired;
        r.window_cycles += rec.window_cycles;
        r.counts.add(&row_counts(rec));
        r.programs.push(ProgramTime {
            program: rec.bench.clone(),
            secs: rec.wall_ms as f64 / 1e3,
            cycles: rec.stats.cycles,
        });
    }
    let mut store_mismatches = checks::check_store(&summary, &records, malformed, &expected);
    store_mismatches.extend(setup_bad);
    // A store-level or set-up failure (missing, resumed or extra rows; a
    // set-up that did not end `Ok`) fails every cell it leaves unaccounted
    // for.
    let missing = expected.len().saturating_sub(records.len()) as u64;
    r.failed = failed_ids.len() as u64 + missing;
    if !store_mismatches.is_empty() && r.failed == 0 {
        r.failed = r.attempted;
    }
    r.mismatches.extend(store_mismatches);
    let busy_ms: u64 = records.iter().map(|x| x.wall_ms).sum();
    r.busy_pct = 100.0 * busy_ms as f64 / 1e3 / (campaign_s * jobs as f64);
    if let Some(gain) = aggregates(&records)
        .iter()
        .find(|c| c.opt_label == "all" && c.fill_latency == 1)
        .map(|c| c.arith_mean_pct)
    {
        r.reference
            .push(("fig8_gain_err_pp", (gain - PAPER_FIG8_GAIN_PCT).abs()));
    }
    let table2: Vec<(&str, [u64; 3], u64)> = records
        .iter()
        .filter(|x| x.opt_label == "all" && x.fill_latency == 1)
        .filter_map(|x| {
            let b = tracefill_workloads::by_name(&x.bench)?;
            let s = &x.stats;
            Some((
                b.name,
                [s.retired_moves, s.retired_reassoc, s.retired_scadd],
                s.retired,
            ))
        })
        .collect();
    r.reference
        .push(("table2_mae_pp", crate::cells::table2_mae_pp(&table2)));
    r
}

/// Simulated counts of one row. Rows store whole-run statistics (warm-up
/// included) and the window's CPI stack; they carry no L1 statistics.
fn row_counts(rec: &tracefill_harness::RunRecord) -> Counts {
    let s = &rec.stats;
    let m = &rec.metrics;
    Counts {
        cycles: s.cycles,
        retired: s.retired,
        from_tc: s.retired_from_tc,
        squashed: s.squashed_uops,
        transformed: s.retired_moves + s.retired_reassoc + s.retired_scadd,
        branches: s.branches,
        mispredicts: s.branch_mispredicts,
        tc_hits: m.counter("tcache.hits"),
        tc_misses: m.counter("tcache.misses"),
        tc_evictions: m.counter("tcache.evictions"),
        fill_segments: m.histogram("fill.segment_len").map_or(0, |h| h.count()),
        l1i: (0, 0),
        l1d: (0, 0),
        cpi: rec.cpi,
    }
}

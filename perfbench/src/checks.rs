//! Output checks that do not depend on the timing model. Each returns the
//! failures it found; any failure fails its cell.
//!
//! - The simulator's architectural state when a cell's program exits
//!   equals a separate `isa::Interp` run of the same program for the same
//!   retired count: registers, memory, syscall output and exit.
//! - Properties the method must have: IPC at most the fetch width, the
//!   window retired at least what was asked, the trace cache's hit and
//!   eviction counts agree with its replacement policy's own (and, in the
//!   replays, hits plus misses equal the lookups made), the `none` opt set
//!   (run by the campaign) transforms no instruction.
//! - For the campaign: the store holds exactly the grid, nothing was
//!   resumed, and every row round-trips through `RunRecord::from_json`.

use crate::cells::CellSpec;
use crate::round::Counts;
use crate::trace::Tracer;
use std::collections::BTreeSet;
use tracefill_core::tcache::{PolicyCounters, TraceCacheStats};
use tracefill_harness::{CampaignSummary, RunRecord, RunStatus};
use tracefill_isa::interp::{Halt, Interp};
use tracefill_isa::mem::Memory;
use tracefill_isa::reg::NUM_ARCH_REGS;
use tracefill_isa::{ArchReg, Program};
use tracefill_sim::Simulator;

/// Architectural state at a retired-instruction count.
#[derive(Debug, Clone)]
pub struct ArchState {
    /// Instructions retired.
    pub retired: u64,
    /// Every architectural register.
    pub regs: [u32; NUM_ARCH_REGS],
    /// Memory contents.
    pub mem: Memory,
    /// Syscall output so far.
    pub output: Vec<u32>,
    /// How the program halted, if it has.
    pub halt: Option<Halt>,
}

impl ArchState {
    /// The simulator's committed state.
    pub fn of_sim(sim: &Simulator) -> ArchState {
        let mut regs = [0; NUM_ARCH_REGS];
        for r in ArchReg::all() {
            regs[r.index()] = sim.arch_reg(r);
        }
        ArchState {
            retired: sim.stats().retired,
            regs,
            mem: sim.mem().clone(),
            output: sim.io().output.clone(),
            halt: sim.halted(),
        }
    }

    /// A fresh interpreter's state after `retired` instructions.
    pub fn of_interp(prog: &Program, retired: u64) -> Result<ArchState, String> {
        let mut it = Interp::new(prog);
        for _ in 0..retired {
            let r = it.step().map_err(|e| format!("interpreter: {e}"))?;
            if r.halt.is_some() {
                break;
            }
        }
        let mut regs = [0; NUM_ARCH_REGS];
        for r in ArchReg::all() {
            regs[r.index()] = it.reg(r);
        }
        Ok(ArchState {
            retired: it.icount(),
            regs,
            mem: it.mem().clone(),
            output: it.io().output.clone(),
            halt: it.halted(),
        })
    }
}

/// `sim` must equal `reference` register for register, byte for byte and
/// output word for output word.
pub fn compare_arch(sim: &ArchState, reference: &ArchState) -> Vec<String> {
    let mut out = Vec::new();
    if sim.retired != reference.retired {
        out.push(format!(
            "interpreter retired {} instructions, simulator {}",
            reference.retired, sim.retired
        ));
    }
    for r in ArchReg::all() {
        let (a, b) = (sim.regs[r.index()], reference.regs[r.index()]);
        if a != b {
            out.push(format!(
                "register {r:?}: simulator {a:#x}, interpreter {b:#x}"
            ));
        }
    }
    if let Some(addr) = sim.mem.diff(&reference.mem) {
        out.push(format!(
            "memory differs from the interpreter's at {addr:#x}"
        ));
    }
    if sim.halt != reference.halt {
        out.push(format!(
            "halt: simulator {:?}, interpreter {:?}",
            sim.halt, reference.halt
        ));
    }
    if sim.output != reference.output {
        out.push(format!(
            "syscall output: simulator {:?}, interpreter {:?}",
            sim.output, reference.output
        ));
    }
    out
}

/// The measured window ran at most `fetch_width` instructions per cycle
/// and retired at least the `requested` instructions.
pub fn check_window(c: &Counts, requested: u64, fetch_width: usize) -> Vec<String> {
    let mut out = Vec::new();
    if c.retired > c.cycles * fetch_width as u64 {
        out.push(format!(
            "IPC {} exceeds the fetch width {fetch_width}",
            c.retired as f64 / c.cycles.max(1) as f64
        ));
    }
    if c.retired < requested {
        out.push(format!(
            "window retired {} of the {requested} instructions asked for",
            c.retired
        ));
    }
    out
}

/// The trace cache and its replacement policy count the same hits and
/// evictions; `lookups`, when the caller counted them, equals hits plus
/// misses.
pub fn check_tcache(
    tc: &TraceCacheStats,
    policy: &PolicyCounters,
    lookups: Option<u64>,
) -> Vec<String> {
    let mut out = Vec::new();
    if tc.hits != policy.hits || tc.evictions != policy.evictions {
        out.push(format!(
            "trace cache counts {} hits / {} evictions, its policy {} / {}",
            tc.hits, tc.evictions, policy.hits, policy.evictions
        ));
    }
    if let Some(n) = lookups {
        if tc.hits + tc.misses != n {
            out.push(format!(
                "trace cache hits {} + misses {} != {n} lookups",
                tc.hits, tc.misses
            ));
        }
    }
    out
}

/// With the `none` opt set, no retired instruction is transformed and the
/// fill unit applied no pass.
pub fn check_none_untransformed(
    opt_label: &str,
    retired_transformed: u64,
    fill_accepts: u64,
) -> Vec<String> {
    if opt_label == "none" && (retired_transformed != 0 || fill_accepts != 0) {
        vec![format!(
            "opt set `none` transformed {retired_transformed} retired instructions \
             ({fill_accepts} pass accepts)"
        )]
    } else {
        Vec::new()
    }
}

/// Every check of a suite-steady or gen-thrash cell.
pub fn check_cell(
    prog: &Program,
    sim: &Simulator,
    spec: &CellSpec,
    c: &Counts,
    tr: &mut Tracer,
) -> Vec<String> {
    let ours = ArchState::of_sim(sim);
    let mut out = match tr.span("isa.interp", |_| ArchState::of_interp(prog, ours.retired)) {
        Ok(reference) => compare_arch(&ours, &reference),
        Err(e) => vec![e],
    };
    out.extend(check_window(c, spec.window, spec.cfg.fetch_width));
    out.extend(check_tcache(
        &sim.tcache_stats(),
        &sim.tcache_policy_counters(),
        None,
    ));
    out
}

/// Store-level checks of one campaign: exactly `expected_ids` rows, no
/// row resumed or skipped, none malformed, every row round-trips.
pub fn check_store(
    summary: &CampaignSummary,
    records: &[RunRecord],
    malformed: usize,
    expected_ids: &BTreeSet<String>,
) -> Vec<String> {
    let mut out = Vec::new();
    let n = expected_ids.len();
    if summary.total != n || summary.skipped != 0 || summary.executed != n {
        out.push(format!(
            "campaign summary total {} / skipped {} / executed {}, grid has {n} cells",
            summary.total, summary.skipped, summary.executed
        ));
    }
    if malformed != 0 {
        out.push(format!("store has {malformed} malformed rows"));
    }
    let ids: BTreeSet<String> = records.iter().map(|r| r.run_id.clone()).collect();
    if records.len() != n || &ids != expected_ids {
        out.push(format!(
            "store holds {} rows ({} distinct ids), grid has {n} cells",
            records.len(),
            ids.len()
        ));
    }
    for r in records {
        match RunRecord::from_json(&r.to_json()) {
            Ok(back) if back.canonical_json() == r.canonical_json() => {}
            Ok(_) => out.push(format!("{}: row changes through from_json", r.run_id)),
            Err(e) => out.push(format!("{}: row does not parse back: {e}", r.run_id)),
        }
    }
    out
}

/// Row-level checks of one campaign cell.
pub fn check_row(r: &RunRecord, budget: u64, fetch_width: usize) -> Vec<String> {
    let mut out = Vec::new();
    if r.status != RunStatus::Ok {
        out.push(format!("status {:?}", r.status));
        return out;
    }
    let window = Counts {
        cycles: r.window_cycles,
        retired: r.window_retired,
        ..Counts::default()
    };
    out.extend(check_window(&window, budget, fetch_width));
    let m = &r.metrics;
    let tc = TraceCacheStats {
        hits: m.counter("tcache.hits"),
        misses: m.counter("tcache.misses"),
        evictions: m.counter("tcache.evictions"),
        ..TraceCacheStats::default()
    };
    let policy = PolicyCounters {
        hits: m.counter("policy.hits"),
        evictions: m.counter("policy.evictions"),
        ..PolicyCounters::default()
    };
    out.extend(check_tcache(&tc, &policy, None));
    let s = &r.stats;
    let accepts: u64 = m
        .counters_with_prefix("fill.")
        .filter(|(k, _)| k.ends_with(".accept"))
        .map(|(_, v)| v)
        .sum();
    out.extend(check_none_untransformed(
        &r.opt_label,
        s.retired_moves + s.retired_reassoc + s.retired_scadd,
        accepts,
    ));
    out.into_iter()
        .map(|m| format!("{}: {m}", r.run_id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{gen_source, Source};
    use tracefill_core::OptConfig;
    use tracefill_sim::{RunExit, SimConfig};

    fn program() -> Program {
        Source::Kernel("m88k", 1)
            .sized(3_000)
            .unwrap()
            .0
            .build()
            .unwrap()
    }

    fn sim_to_exit(prog: &Program, cfg: SimConfig) -> Simulator {
        let mut sim = Simulator::new(prog, cfg);
        assert_eq!(sim.run(10_000_000).unwrap(), RunExit::Exited(0));
        sim
    }

    #[test]
    fn simulator_matches_interpreter_and_a_wrong_value_fails() {
        let prog = program();
        let sim = sim_to_exit(&prog, SimConfig::with_opts(OptConfig::all()));
        let ours = ArchState::of_sim(&sim);
        let reference = ArchState::of_interp(&prog, ours.retired).unwrap();
        assert_eq!(compare_arch(&ours, &reference), Vec::<String>::new());

        let mut bad = ours.clone();
        bad.regs[ArchReg::all().nth(9).unwrap().index()] ^= 1;
        assert_eq!(compare_arch(&bad, &reference).len(), 1);
        let mut bad = ours.clone();
        bad.mem
            .write_u32(0x1000_0000, bad.mem.read_u32(0x1000_0000) ^ 0x80);
        assert!(compare_arch(&bad, &reference)[0].contains("memory"));
        let mut bad = ours.clone();
        bad.output.push(7);
        assert!(compare_arch(&bad, &reference)[0].contains("output"));
        let mut bad = ours.clone();
        bad.halt = None;
        assert!(compare_arch(&bad, &reference)[0].contains("halt"));
        let mut bad = ours;
        bad.retired += 1;
        assert!(compare_arch(&bad, &reference)[0].contains("retired"));
    }

    #[test]
    fn fill_latency_changes_no_architectural_result() {
        let prog = gen_source(3, 2_000, 6_000)
            .sized(6_000)
            .unwrap()
            .0
            .build()
            .unwrap();
        for latency in [1, 10] {
            let mut cfg = SimConfig::with_opts(OptConfig::all());
            cfg.fill.latency = latency;
            let sim = sim_to_exit(&prog, cfg);
            let ours = ArchState::of_sim(&sim);
            let reference = ArchState::of_interp(&prog, ours.retired).unwrap();
            assert_eq!(compare_arch(&ours, &reference), Vec::<String>::new());
        }
    }

    #[test]
    fn window_check_fails_on_wrong_values() {
        let ok = Counts {
            cycles: 100,
            retired: 400,
            ..Counts::default()
        };
        assert!(check_window(&ok, 400, 16).is_empty());
        let too_fast = Counts {
            cycles: 10,
            ..ok.clone()
        };
        assert_eq!(check_window(&too_fast, 400, 16).len(), 1);
        assert_eq!(check_window(&ok, 401, 16).len(), 1);
    }

    #[test]
    fn tcache_check_fails_on_wrong_values() {
        let tc = TraceCacheStats {
            hits: 9,
            misses: 3,
            evictions: 2,
            ..TraceCacheStats::default()
        };
        let policy = PolicyCounters {
            hits: 9,
            evictions: 2,
            ..PolicyCounters::default()
        };
        assert!(check_tcache(&tc, &policy, Some(12)).is_empty());
        assert_eq!(check_tcache(&tc, &policy, Some(13)).len(), 1);
        let off = PolicyCounters { hits: 8, ..policy };
        assert_eq!(check_tcache(&tc, &off, None).len(), 1);
    }

    #[test]
    fn none_check_fails_on_a_transform() {
        assert!(check_none_untransformed("none", 0, 0).is_empty());
        assert!(check_none_untransformed("all", 5, 5).is_empty());
        assert_eq!(check_none_untransformed("none", 1, 0).len(), 1);
        assert_eq!(check_none_untransformed("none", 0, 1).len(), 1);
    }

    #[test]
    fn campaign_checks_pass_on_a_real_store_and_fail_on_wrong_values() {
        use tracefill_harness::{run_campaign, CampaignSpec, ResultStore};
        let spec = CampaignSpec {
            benchmarks: vec!["m88k".to_string()],
            fill_latencies: vec![1],
            warmup: 300,
            budget: 300,
            ..CampaignSpec::fig8()
        };
        let expected: BTreeSet<String> = spec.expand().into_iter().map(|d| d.run_id).collect();
        let dir = std::path::Path::new(".perfbench");
        std::fs::create_dir_all(dir).unwrap();
        let path = crate::fresh_file(dir, "checks-test");
        let _ = std::fs::remove_file(&path);
        let mut store = ResultStore::open(&path).unwrap();
        let summary = run_campaign(&spec, &mut store, 1, false).unwrap();
        let (records, malformed) = store.load_counted().unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            check_store(&summary, &records, malformed, &expected),
            Vec::<String>::new()
        );
        for r in &records {
            assert_eq!(check_row(r, spec.budget, 16), Vec::<String>::new());
        }

        let resumed = CampaignSummary {
            skipped: 1,
            ..summary.clone()
        };
        assert_eq!(check_store(&resumed, &records, 0, &expected).len(), 1);
        assert_eq!(check_store(&summary, &records, 1, &expected).len(), 1);
        assert_eq!(check_store(&summary, &records[1..], 0, &expected).len(), 1);

        let none = records.iter().find(|r| r.opt_label == "none").unwrap();
        let mut bad = none.clone();
        bad.stats.retired_moves = 1;
        assert_eq!(check_row(&bad, spec.budget, 16).len(), 1);
        let mut bad = none.clone();
        bad.window_retired = spec.budget - 1;
        assert_eq!(check_row(&bad, spec.budget, 16).len(), 1);
        let mut bad = none.clone();
        bad.window_cycles = 1;
        assert_eq!(check_row(&bad, spec.budget, 16).len(), 1);
        let mut bad = none.clone();
        bad.status = RunStatus::Timeout;
        assert_eq!(check_row(&bad, spec.budget, 16).len(), 1);
    }
}

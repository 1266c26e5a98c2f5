//! The traced pass: each job's pipeline replayed through the layers'
//! public functions, with a timer around every call.
//!
//! The replay composes the passes the way `Synthesizer::run` does for a
//! single-round config (cold, or an extraction-only resume) and the way
//! the batch engine stores snapshots. Its ranked programs are compared
//! with the untraced pass's, so a change to how the program composes
//! its passes shows up as a named mismatch rather than as per-layer
//! numbers for a pipeline that no longer runs.

use std::path::Path;
use std::time::{Duration, Instant};

use sz_batch::{ResultCache, SnapshotKey};
use sz_cad::Cad;
use sz_egraph::{KBestExtractor, Runner, Scheduler, Snapshot};
use szalinski::{
    cad_to_lang, determinize_all, fold_sites, infer_functions, infer_loops, lang_to_cad,
    list_manipulation, read_list, CadAnalysis, CadGraph, CadRewrite, ModelCost, SatPhase,
    StopReason, SynthConfig, SynthSnapshot,
};

/// Per-layer totals over the jobs of one traced pass. Times are summed
/// over jobs, so with several replay threads they add up thread time.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub sat: Duration,
    pub sat_search: Duration,
    pub sat_apply: Duration,
    pub sat_rebuild: Duration,
    pub sat_iterations: u64,
    pub sat_matches: u64,
    pub nodes_sat: u64,
    pub listmanip: Duration,
    pub listmanip_lists: u64,
    pub determinize: Duration,
    pub funcinfer: Duration,
    pub funcinfer_records: u64,
    pub loopinfer: Duration,
    pub loopinfer_records: u64,
    pub infer_rebuild: Duration,
    pub nodes_final: u64,
    pub extract_table: Duration,
    pub extract_enum: Duration,
    pub extract_candidates: u64,
    pub snapshot_capture: Duration,
    pub snapshot_bytes: u64,
    pub snapshot_parse: Duration,
    pub snapshot_restore: Duration,
    /// Replayed pipeline time, summed over jobs; the determinize probe
    /// is not part of the pipeline and is left out.
    pub total: Duration,
}

impl Layers {
    pub fn absorb(&mut self, o: &Layers) {
        self.sat += o.sat;
        self.sat_search += o.sat_search;
        self.sat_apply += o.sat_apply;
        self.sat_rebuild += o.sat_rebuild;
        self.sat_iterations += o.sat_iterations;
        self.sat_matches += o.sat_matches;
        self.nodes_sat += o.nodes_sat;
        self.listmanip += o.listmanip;
        self.listmanip_lists += o.listmanip_lists;
        self.determinize += o.determinize;
        self.funcinfer += o.funcinfer;
        self.funcinfer_records += o.funcinfer_records;
        self.loopinfer += o.loopinfer;
        self.loopinfer_records += o.loopinfer_records;
        self.infer_rebuild += o.infer_rebuild;
        self.nodes_final += o.nodes_final;
        self.extract_table += o.extract_table;
        self.extract_enum += o.extract_enum;
        self.extract_candidates += o.extract_candidates;
        self.snapshot_capture += o.snapshot_capture;
        self.snapshot_bytes += o.snapshot_bytes;
        self.snapshot_parse += o.snapshot_parse;
        self.snapshot_restore += o.snapshot_restore;
        self.total += o.total;
    }
}

/// What one replayed job produced.
pub struct Replayed {
    /// `(cost, program)` pairs, cheapest first, as the engine reports them.
    pub programs: Vec<(usize, String)>,
    /// The snapshot text the engine would store (cold runs with capture).
    pub snapshot: Option<String>,
}

/// Times `f`, adding its duration to `slot`.
fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed();
    out
}

/// Replays a cold single-round run: saturation, the inference passes
/// with their rebuilds, snapshot capture when `capture` is set, and
/// k-best extraction.
pub fn cold(
    input: &Cad,
    config: &SynthConfig,
    rules: &[CadRewrite],
    capture: bool,
    layers: &mut Layers,
) -> Replayed {
    let start = Instant::now();
    let mut job = Layers::default();

    let mut egraph = CadGraph::new(CadAnalysis);
    let root = egraph.add_expr(&cad_to_lang(input));
    egraph.rebuild();
    let runner = Runner::new(CadAnalysis)
        .with_egraph(egraph)
        .with_iter_limit(config.iter_limit)
        .with_node_limit(config.node_limit)
        .with_time_limit(config.time_limit)
        .with_scheduler(Scheduler::Simple);
    let mut runner = timed(&mut job.sat, || runner.run(rules));
    for it in &runner.iterations {
        let search: Duration = it.rules.iter().map(|r| r.search_time).sum();
        let apply: Duration = it.rules.iter().map(|r| r.apply_time).sum();
        job.sat_search += search;
        job.sat_apply += apply;
        job.sat_rebuild += it.time.saturating_sub(search + apply);
        job.sat_matches += it.rules.iter().map(|r| r.matches as u64).sum::<u64>();
    }
    job.sat_iterations = runner.iterations.len() as u64;
    job.nodes_sat = runner.egraph.total_number_of_nodes() as u64;

    let saturated = runner.stop_reason == Some(StopReason::Saturated);
    let iterations = runner.prior_iterations + runner.iterations.len();
    let rule_stats = runner.rule_totals();
    let sat_phase = capture.then(|| {
        timed(&mut job.snapshot_capture, || {
            runner.roots = vec![root];
            runner
                .snapshot()
                .expect("the runner rebuilds before it returns")
        })
    });
    let mut egraph = runner.egraph;

    job.listmanip_lists = timed(&mut job.listmanip, || list_manipulation(&mut egraph)) as u64;
    timed(&mut job.infer_rebuild, || egraph.rebuild());
    timed(&mut job.determinize, || probe_determinize(&egraph));
    let records = timed(&mut job.funcinfer, || {
        infer_functions(&mut egraph, config.eps)
    });
    job.funcinfer_records = records.len() as u64;
    timed(&mut job.infer_rebuild, || egraph.rebuild());
    let records = timed(&mut job.loopinfer, || infer_loops(&mut egraph, config.eps));
    job.loopinfer_records = records.len() as u64;
    timed(&mut job.infer_rebuild, || egraph.rebuild());
    job.nodes_final = egraph.total_number_of_nodes() as u64;

    let snapshot = sat_phase.map(|phase| {
        timed(&mut job.snapshot_capture, || {
            let graph = Snapshot::of_egraph(&egraph, &[root])
                .expect("the inference passes end with a rebuild")
                .with_iterations(iterations);
            let synth = SynthSnapshot::new(input, config, graph);
            // The engine drops the saturation phase of a saturated run:
            // there is nothing left to continue.
            if saturated {
                synth.to_string()
            } else {
                synth
                    .with_sat_phase(SatPhase::new(config, phase).with_rule_stats(rule_stats))
                    .to_string()
            }
        })
    });
    job.snapshot_bytes = snapshot.as_ref().map_or(0, |s| s.len() as u64);

    let programs = extract(&egraph, root, config, &mut job);
    job.total = start.elapsed().saturating_sub(job.determinize);
    layers.absorb(&job);
    Replayed { programs, snapshot }
}

/// Replays an extraction-only resume from the snapshot tier: look the
/// snapshot up, parse it, restore the e-graph and extract. Returns
/// `None` when the tier has no usable snapshot for the job (the engine
/// would then have run cold).
pub fn resume(
    input: &Cad,
    config: &SynthConfig,
    cache: &ResultCache,
    layers: &mut Layers,
) -> Option<Vec<(usize, String)>> {
    let start = Instant::now();
    let mut job = Layers::default();
    let text = cache.get_snapshot(SnapshotKey::of(input, config))?;
    let snapshot: SynthSnapshot = timed(&mut job.snapshot_parse, || text.parse()).ok()?;
    let &[root] = snapshot.egraph_snapshot().roots() else {
        return None;
    };
    if snapshot.input_sexp() != input.to_string()
        || snapshot.saturation_fingerprint() != config.saturation_fingerprint()
    {
        return None;
    }
    let egraph = timed(&mut job.snapshot_restore, || {
        snapshot.egraph_snapshot().restore(CadAnalysis)
    });
    timed(&mut job.determinize, || probe_determinize(&egraph));
    job.nodes_final = egraph.total_number_of_nodes() as u64;
    let programs = extract(&egraph, root, config, &mut job);
    job.total = start.elapsed().saturating_sub(job.determinize);
    layers.absorb(&job);
    Some(programs)
}

/// Determinizes every fold site's list, as function inference does
/// before it fits: a probe of that layer's cost on this graph. It reads
/// the graph only, so it does not change what the replay produces.
fn probe_determinize(egraph: &CadGraph) -> usize {
    fold_sites(egraph)
        .iter()
        .filter_map(|site| read_list(egraph, site.list))
        .map(|elements| determinize_all(egraph, &elements).len())
        .sum()
}

/// k-best extraction as the pipeline ranks it: `2k` candidates per
/// class, converted back to CAD, duplicates dropped, the first `k` kept.
fn extract(
    egraph: &CadGraph,
    root: sz_egraph::Id,
    config: &SynthConfig,
    job: &mut Layers,
) -> Vec<(usize, String)> {
    let kbest = timed(&mut job.extract_table, || {
        KBestExtractor::new(egraph, ModelCost(config.cost_model.clone()), config.k * 2)
    });
    timed(&mut job.extract_enum, || {
        let candidates = kbest.find_best_k(root);
        job.extract_candidates = candidates.len() as u64;
        let mut top: Vec<(usize, Cad)> = Vec::new();
        for (cost, expr) in candidates {
            let Ok(cad) = lang_to_cad(&expr) else {
                continue;
            };
            if top.iter().any(|(_, c)| *c == cad) {
                continue;
            }
            top.push((cost.primary() as usize, cad));
            if top.len() >= config.k {
                break;
            }
        }
        top.into_iter()
            .map(|(cost, cad)| (cost, cad.to_string()))
            .collect()
    })
}

/// Times `save_snapshot_dir` for the replayed snapshots, under the same
/// budget the timed pass used. Returns the save time and evictions.
pub fn save_snapshots(
    snapshots: impl IntoIterator<Item = (SnapshotKey, String)>,
    dir: &Path,
) -> std::io::Result<(Duration, usize)> {
    let mut cache = ResultCache::new().with_snapshot_budget(sz_batch::DEFAULT_SNAPSHOT_BUDGET);
    for (key, text) in snapshots {
        cache.insert_snapshot(key, text);
    }
    let start = Instant::now();
    sz_batch::save_snapshot_dir(&cache, dir)?;
    Ok((start.elapsed(), cache.evictions()))
}

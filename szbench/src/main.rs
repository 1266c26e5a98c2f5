//! The repository's benchmark: three workloads run through sz-batch's
//! engine the way `szb` runs them, every job's output checked, and the
//! end-to-end or per-layer metrics printed as one JSON line.
//!
//! ```text
//! szbench --workload <suite16|gen-cold|gen-resume> --seed N --seconds S --trace 0|1
//! ```
//!
//! See README.md for the workloads, the metrics and the layer map.

mod normal;
mod replay;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sz_batch::{BatchEngine, BatchJob, JobOutcome, JobStatus, ResultCache, SnapshotKey};
use sz_cad::Cad;
use sz_gen::GenSpec;
use szalinski::{SynthConfig, Synthesizer};

use normal::{normalize, Comparator};
use replay::Layers;

/// Models in a generated corpus: enough for a p99 with ten jobs beyond it.
const GEN_COUNT: usize = 1000;
/// The generator's jitter amplitude.
const GEN_NOISE: f64 = 0.0005;
/// Set-up repetitions per run; `setup_s` reports their median.
const SETUP_REPS: usize = 9;
/// Workers of the `gen-cold` pass and of the `gen-resume` fill: the
/// CPU count of the machine the reference figures come from.
const GEN_WORKERS: usize = 2;
/// Nesting depth of the counted failing input.
const DEEP_NESTING: usize = 100_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Suite16,
    GenCold,
    GenResume,
}

impl Workload {
    fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "suite16" => Ok(Workload::Suite16),
            "gen-cold" => Ok(Workload::GenCold),
            "gen-resume" => Ok(Workload::GenResume),
            _ => Err(format!(
                "unknown workload `{s}` (suite16, gen-cold, gen-resume)"
            )),
        }
    }

    /// The fuel of the cold pass: the paper's default on suite16, a
    /// lighter budget on the generated corpus.
    fn cold_config(self) -> SynthConfig {
        match self {
            Workload::Suite16 => SynthConfig::new(),
            Workload::GenCold | Workload::GenResume => SynthConfig::new()
                .with_iter_limit(30)
                .with_node_limit(20_000),
        }
    }

    /// The config of the timed pass: `gen-resume` asks for one more
    /// program, an extraction-only change the snapshot tier serves.
    fn config(self) -> SynthConfig {
        let config = self.cold_config();
        match self {
            Workload::GenResume => {
                let k = config.k + 1;
                config.with_k(k)
            }
            _ => config,
        }
    }

    fn workers(self) -> usize {
        match self {
            Workload::GenCold => GEN_WORKERS,
            Workload::Suite16 | Workload::GenResume => 1,
        }
    }

    fn noise(self) -> f64 {
        match self {
            Workload::Suite16 => 0.0,
            Workload::GenCold | Workload::GenResume => GEN_NOISE,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!(
                        "--seconds: expected a positive number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn gen_spec(seed: u64) -> GenSpec {
    format!("count={GEN_COUNT},seed={seed},noise={GEN_NOISE}")
        .parse()
        .expect("the benchmark's corpus spec is valid")
}

/// The workload's jobs: the 16 Table-1 models, or the generated corpus.
fn corpus(workload: Workload, seed: u64) -> Vec<BatchJob> {
    let config = workload.config();
    match workload {
        Workload::Suite16 => sz_batch::suite16_jobs(&config),
        Workload::GenCold | Workload::GenResume => {
            sz_batch::gen_jobs(&gen_spec(seed), &config, None).0
        }
    }
}

/// A scratch directory inside the working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Result<WorkDir, String> {
        let path = Path::new(".bench_work").join(std::process::id().to_string());
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.bench_work` itself when another run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("fill") {
        fill(&args[1..])
    } else {
        parse_args(&args).and_then(|a| run(&a))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("szbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `szbench fill <seed> <dir> <costs>`: the `gen-resume` set-up's cold
/// pass, run in a child process so its memory does not count in the
/// parent's peak. Fills `<dir>` with snapshots like `szb --snapshots`
/// and writes each job's best cost to `<costs>`.
fn fill(args: &[String]) -> Result<(), String> {
    let [seed, dir, costs] = args else {
        return Err("usage: szbench fill <seed> <dir> <costs>".into());
    };
    let seed: u64 = seed.parse().map_err(|e| format!("seed: {e}"))?;
    let config = Workload::GenResume.cold_config();
    let jobs = sz_batch::gen_jobs(&gen_spec(seed), &config, None).0;
    let mut cache = ResultCache::new();
    sz_batch::attach_snapshot_dir(&mut cache, Path::new(dir)).map_err(|e| e.to_string())?;
    let cache = Arc::new(Mutex::new(cache));
    let report = BatchEngine::new()
        .with_workers(GEN_WORKERS)
        .with_cache(Arc::clone(&cache))
        .run(jobs);
    let cache = cache.lock().expect("the batch has finished");
    sz_batch::save_snapshot_dir(&cache, Path::new(dir)).map_err(|e| e.to_string())?;
    let mut out = String::new();
    for o in &report.outcomes {
        let (cost, _) = o
            .programs
            .first()
            .ok_or_else(|| format!("fill: job {} produced no program", o.name))?;
        writeln!(out, "{} {cost}", o.name).expect("writing to a String");
    }
    std::fs::write(costs, out).map_err(|e| format!("{costs}: {e}"))
}

/// One timed pass over the corpus.
struct Round {
    outcomes: Vec<JobOutcome>,
    /// Wall time of the whole pass, snapshot-dir load or save included.
    wall: Duration,
    /// Wall time of `BatchEngine::run` alone.
    engine_wall: Duration,
    evictions: usize,
}

fn run(args: &Args) -> Result<(), String> {
    let workload = args.workload;
    let work = WorkDir::new()?;
    let szb = build_szb()?;

    // Set-up: corpus generation and rule-set compile, repeated; on
    // gen-resume also the cold pass that fills the snapshot directory.
    let config = workload.config();
    let mut setups = Vec::new();
    let mut gens = Vec::new();
    let mut jobs = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        jobs = corpus(workload, args.seed);
        gens.push(start.elapsed().as_secs_f64());
        // What the session does once per process: compile the rules and
        // run the static analysis over them.
        let rules = szalinski::rules();
        std::hint::black_box(szalinski::lint_ruleset(&rules));
        Synthesizer::try_new(config.clone()).map_err(|e| e.to_string())?;
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut setup_s = median(&mut setups);
    let fill_dir = work.0.join("fill");
    let mut cold_costs = Vec::new();
    if workload == Workload::GenResume {
        let costs = work.0.join("costs.txt");
        let start = Instant::now();
        let status = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
            .arg("fill")
            .arg(args.seed.to_string())
            .arg(&fill_dir)
            .arg(&costs)
            .status()
            .map_err(|e| format!("fill: {e}"))?;
        if !status.success() {
            return Err(format!("fill: {status}"));
        }
        setup_s += start.elapsed().as_secs_f64();
        cold_costs = read_costs(&costs, &jobs)?;
    }

    // The counted failing operation's inputs (gen-cold only).
    let deep_dir = work.0.join("deep");
    if workload == Workload::GenCold {
        write_deep_corpus(&deep_dir)?;
    }

    // The timed pass, in whole rounds.
    let mut rounds: Vec<Round> = Vec::new();
    let mut szb_ok = Vec::new();
    let mut timed = Duration::ZERO;
    let mut peak_rss_mb = 0.0;
    while timed.as_secs_f64() < args.seconds || rounds.is_empty() {
        let dir = work.0.join(format!("snaps-{}", rounds.len()));
        let round = timed_round(workload, &jobs, &fill_dir, &dir)?;
        timed += round.wall;
        if rounds.is_empty() {
            // The first round's peak: how many rounds fit in a run depends
            // on the machine's speed, and later ones only add allocator
            // growth.
            peak_rss_mb = read_peak_rss_mb()?;
        } else {
            // Only the first round's directory is kept for the replay.
            let _ = std::fs::remove_dir_all(&dir);
        }
        rounds.push(round);
        if workload == Workload::GenCold {
            szb_ok.push(run_deep_corpus(&szb, &deep_dir, &work.0)?);
        }
    }

    // Checks on every job.
    let cmp = Comparator::new(config.eps, workload.noise());
    let mut errors = Vec::new();
    let first = &rounds[0];
    let mut out_nodes = 0usize;
    for (job, o) in jobs.iter().zip(&first.outcomes) {
        if o.status != JobStatus::Ok {
            continue;
        }
        match check_job(job, o, &cmp) {
            Ok(nodes) => out_nodes += nodes,
            Err(e) => errors.push(format!("{}: {e}", o.name)),
        }
        if workload == Workload::GenResume && !(o.snapshot_hit && o.iterations == 0) {
            errors.push(format!(
                "{}: not an extraction-only resume (snapshot_hit {}, {} iterations)",
                o.name, o.snapshot_hit, o.iterations
            ));
        }
    }
    if workload == Workload::GenResume {
        for ((o, cold), job) in first.outcomes.iter().zip(&cold_costs).zip(&jobs) {
            let best = o.programs.first().map(|(c, _)| *c);
            if o.status == JobStatus::Ok && best != Some(*cold) {
                errors.push(format!(
                    "{}: resumed best cost {best:?} != cold best cost {cold}",
                    job.name
                ));
            }
        }
        for round in &rounds {
            if round.evictions != 0 {
                errors.push(format!("snapshot tier evicted {} entries", round.evictions));
            }
        }
    }
    for round in &rounds[1..] {
        for (a, b) in first.outcomes.iter().zip(&round.outcomes) {
            if a.programs != b.programs {
                errors.push(format!("{}: programs differ between rounds", a.name));
            }
        }
    }

    let failed_jobs: usize = rounds
        .iter()
        .map(|r| {
            r.outcomes
                .iter()
                .filter(|o| o.status != JobStatus::Ok)
                .count()
        })
        .sum();
    let attempted = rounds.len() * jobs.len() + szb_ok.len();
    let failed = failed_jobs + szb_ok.iter().filter(|ok| !**ok).count();

    let mut metrics = Metrics::default();
    if args.trace {
        let traced = traced_pass(workload, &jobs, first, &fill_dir, &work.0, &mut errors)?;
        traced.report(&mut metrics, median(&mut gens), first, workload.workers());
        traced.print_table(first);
    } else {
        metrics.push("setup_s", setup_s, "s");
        let mut rates: Vec<f64> = rounds
            .iter()
            .map(|r| jobs.len() as f64 / r.wall.as_secs_f64())
            .collect();
        metrics.push("models_per_s", median(&mut rates), "models/s");
        let (p50, tail) = job_latency_ms(&rounds);
        metrics.push("job_p50_ms", p50, "ms");
        metrics.push("job_tail_ms", tail, "ms");
        metrics.push("peak_rss_mb", peak_rss_mb, "MB");
        metrics.push("out_nodes", out_nodes as f64, "nodes");
    }

    for e in &errors {
        eprintln!("szbench: check failed: {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        errors.is_empty(),
        metrics.0
    );
    Ok(())
}

/// Builds the `szb` binary of the workspace in the working directory
/// and returns its path.
fn build_szb() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let out = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "sz-batch",
            "--bin",
            "szb",
            "--message-format=json",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cargo build szb: {e}"))?;
    if !out.status.success() {
        return Err(format!("cargo build szb: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .filter(|l| l.contains("\"compiler-artifact\"") && l.contains("\"szb\""))
        .find_map(|l| {
            let rest = &l[l.find("\"executable\":\"")? + 14..];
            Some(PathBuf::from(&rest[..rest.find('"')?]))
        })
        .ok_or_else(|| "cargo build szb: no executable reported".into())
}

fn timed_round(
    workload: Workload,
    jobs: &[BatchJob],
    fill_dir: &Path,
    dir: &Path,
) -> Result<Round, String> {
    let jobs = jobs.to_vec();
    let engine = BatchEngine::new().with_workers(workload.workers());
    let io = |e: std::io::Error| e.to_string();
    let start = Instant::now();
    let (report, evictions) = match workload {
        Workload::Suite16 => (engine.run(jobs), 0),
        Workload::GenCold => {
            let mut cache = ResultCache::new();
            sz_batch::attach_snapshot_dir(&mut cache, dir).map_err(io)?;
            let cache = Arc::new(Mutex::new(cache));
            let report = engine.with_cache(Arc::clone(&cache)).run(jobs);
            let cache = cache.lock().expect("the batch has finished");
            sz_batch::save_snapshot_dir(&cache, dir).map_err(io)?;
            (report, cache.evictions())
        }
        Workload::GenResume => {
            let mut cache = ResultCache::new();
            sz_batch::attach_snapshot_dir(&mut cache, fill_dir).map_err(io)?;
            let cache = Arc::new(Mutex::new(cache));
            let report = engine.with_cache(Arc::clone(&cache)).run(jobs);
            let evictions = cache.lock().expect("the batch has finished").evictions();
            (report, evictions)
        }
    };
    Ok(Round {
        wall: start.elapsed(),
        engine_wall: report.wall_time,
        outcomes: report.outcomes,
        evictions,
    })
}

/// The output check: the best program unrolls to the input's normal form
/// and is no larger than the input. Returns the best program's size.
fn check_job(job: &BatchJob, o: &JobOutcome, cmp: &Comparator) -> Result<usize, String> {
    let (_, best) = o.programs.first().ok_or("no program")?;
    let best: Cad = best.parse().map_err(|e| format!("best program: {e}"))?;
    let flat = best
        .eval_to_flat()
        .map_err(|e| format!("evaluating: {e}"))?;
    let want = normalize(&job.input)?;
    let got = normalize(&flat)?;
    if !cmp.same(&want, &got) {
        return Err(format!("best program does not unroll to the input: {best}"));
    }
    let (out, inp) = (best.num_nodes(), job.input.num_nodes());
    if out > inp {
        return Err(format!("best program has {out} nodes, the input {inp}"));
    }
    Ok(out)
}

fn read_costs(path: &Path, jobs: &[BatchJob]) -> Result<Vec<usize>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let costs: Vec<usize> = text
        .lines()
        .zip(jobs)
        .map(|(line, job)| match line.split_once(' ') {
            Some((name, cost)) if name == job.name => cost.parse().ok(),
            _ => None,
        })
        .collect::<Option<_>>()
        .ok_or("fill: cost file does not match the corpus")?;
    if costs.len() != jobs.len() {
        return Err("fill: cost file does not match the corpus".into());
    }
    Ok(costs)
}

/// A directory with one good model and one nested `DEEP_NESTING` deep.
/// Neither depends on the seed.
fn write_deep_corpus(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let good = "(Union (Translate 2 0 0 Unit) (Union (Translate 4 0 0 Unit) \
                (Union (Translate 6 0 0 Unit) (Translate 8 0 0 Unit))))";
    let mut deep = "(Translate 1 0 0 ".repeat(DEEP_NESTING);
    deep.push_str("Unit");
    deep.push_str(&")".repeat(DEEP_NESTING));
    std::fs::write(dir.join("good.csexp"), good).map_err(|e| e.to_string())?;
    std::fs::write(dir.join("deep.csexp"), deep).map_err(|e| e.to_string())
}

/// Runs `szb` over the deep-nesting directory. It succeeds when `szb`
/// exits 0 or 1 (a failed job) with the good model's row in its report.
fn run_deep_corpus(szb: &Path, dir: &Path, work: &Path) -> Result<bool, String> {
    let report = work.join("deep-report.jsonl");
    let _ = std::fs::remove_file(&report);
    let status = Command::new(szb)
        .arg(dir)
        .args(["--workers", "1", "--quiet", "--report"])
        .arg(&report)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("szb: {e}"))?;
    let rows = std::fs::read_to_string(&report).unwrap_or_default();
    Ok(matches!(status.code(), Some(0 | 1)) && rows.contains("\"name\":\"good\""))
}

/// Peak resident memory of this process so far, in MB. The set-up that
/// precedes the timed pass is kept light (the gen-resume fill runs in a
/// child process), so after the first round this is that round's peak.
fn read_peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Per-job latency: each job's median over the rounds, then the median
/// job and the tail — the highest percentile with at least ten jobs
/// beyond it, or the slowest job when there are fewer than 40 jobs.
fn job_latency_ms(rounds: &[Round]) -> (f64, f64) {
    let mut per_job: Vec<f64> = (0..rounds[0].outcomes.len())
        .map(|i| {
            let mut times: Vec<f64> = rounds
                .iter()
                .map(|r| r.outcomes[i].time.as_secs_f64() * 1e3)
                .collect();
            median(&mut times)
        })
        .collect();
    per_job.sort_by(f64::total_cmp);
    let n = per_job.len();
    let tail = if n >= 40 {
        per_job[n - 11]
    } else {
        per_job[n - 1]
    };
    (median(&mut per_job), tail)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The `metrics` object's body, built in order.
#[derive(Default)]
struct Metrics(String);

impl Metrics {
    fn push(&mut self, name: &str, value: f64, unit: &str) {
        if !self.0.is_empty() {
            self.0.push_str(", ");
        }
        write!(
            self.0,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String");
    }
}

/// The traced pass: every job replayed layer by layer, its programs
/// compared with the untraced pass's.
fn traced_pass(
    workload: Workload,
    jobs: &[BatchJob],
    untraced: &Round,
    fill_dir: &Path,
    work: &Path,
    errors: &mut Vec<String>,
) -> Result<TracedPass, String> {
    let config = workload.config();
    let rules = szalinski::rules();
    let mut traced = TracedPass::default();
    match workload {
        Workload::Suite16 | Workload::GenCold => {
            let capture = workload == Workload::GenCold;
            if capture {
                // The timed pass opened an empty snapshot dir.
                let empty = work.join("empty");
                let start = Instant::now();
                sz_batch::load_snapshot_dir(&mut ResultCache::new(), &empty)
                    .map_err(|e| e.to_string())?;
                traced.load = start.elapsed();
            }
            let next = AtomicUsize::new(0);
            let results: Vec<Mutex<Option<replay::Replayed>>> =
                jobs.iter().map(|_| Mutex::new(None)).collect();
            let per_thread: Vec<Layers> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..workload.workers())
                    .map(|_| {
                        s.spawn(|| {
                            let mut layers = Layers::default();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(job) = jobs.get(i) else { break };
                                let r =
                                    replay::cold(&job.input, &config, &rules, capture, &mut layers);
                                *results[i].lock().expect("no replay panics") = Some(r);
                            }
                            layers
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("replay thread panicked"))
                    .collect()
            });
            for l in &per_thread {
                traced.layers.absorb(l);
            }
            let mut snapshots = Vec::new();
            for ((job, o), r) in jobs.iter().zip(&untraced.outcomes).zip(results) {
                let r = r
                    .into_inner()
                    .expect("no replay panics")
                    .expect("every job replayed");
                if r.programs != o.programs {
                    errors.push(format!("{}: replayed programs differ", job.name));
                }
                if let Some(text) = r.snapshot {
                    let key = SnapshotKey::of(&job.input, &config);
                    let stored = work.join("snaps-0").join(format!("{key}.snap"));
                    if std::fs::read_to_string(&stored).ok().as_deref() != Some(text.as_str()) {
                        errors.push(format!("{}: replayed snapshot differs", job.name));
                    }
                    snapshots.push((key, text));
                }
            }
            if capture {
                let (save, evictions) = replay::save_snapshots(snapshots, &work.join("resave"))
                    .map_err(|e| e.to_string())?;
                traced.save = save;
                traced.evictions = evictions;
            }
        }
        Workload::GenResume => {
            let mut cache = ResultCache::new();
            let start = Instant::now();
            sz_batch::load_snapshot_dir(&mut cache, fill_dir).map_err(|e| e.to_string())?;
            traced.load = start.elapsed();
            traced.evictions = untraced.evictions;
            for (job, o) in jobs.iter().zip(&untraced.outcomes) {
                match replay::resume(&job.input, &config, &cache, &mut traced.layers) {
                    Some(programs) => {
                        traced.snapshot_hits += 1;
                        if programs != o.programs {
                            errors.push(format!("{}: replayed programs differ", job.name));
                        }
                    }
                    None => errors.push(format!("{}: no snapshot to resume from", job.name)),
                }
            }
        }
    }
    Ok(traced)
}

/// What the traced pass measured, beyond the per-job layers.
#[derive(Default)]
struct TracedPass {
    layers: Layers,
    load: Duration,
    save: Duration,
    snapshot_hits: usize,
    evictions: usize,
}

impl TracedPass {
    fn report(&self, m: &mut Metrics, gen_s: f64, untraced: &Round, workers: usize) {
        let l = &self.layers;
        let s = |d: Duration| d.as_secs_f64();
        m.push("gen.s", gen_s, "s");
        m.push("sat.s", s(l.sat), "s");
        m.push("sat.search_s", s(l.sat_search), "s");
        m.push("sat.apply_s", s(l.sat_apply), "s");
        m.push("sat.rebuild_s", s(l.sat_rebuild), "s");
        m.push("sat.iterations", l.sat_iterations as f64, "count");
        m.push("sat.matches", l.sat_matches as f64, "count");
        m.push("egraph.nodes_sat", l.nodes_sat as f64, "nodes");
        m.push("listmanip.s", s(l.listmanip), "s");
        m.push("listmanip.lists", l.listmanip_lists as f64, "count");
        m.push("determinize.s", s(l.determinize), "s");
        m.push("funcinfer.s", s(l.funcinfer), "s");
        m.push("funcinfer.records", l.funcinfer_records as f64, "count");
        m.push("loopinfer.s", s(l.loopinfer), "s");
        m.push("loopinfer.records", l.loopinfer_records as f64, "count");
        m.push("infer.rebuild_s", s(l.infer_rebuild), "s");
        m.push("egraph.nodes_final", l.nodes_final as f64, "nodes");
        m.push("extract.table_s", s(l.extract_table), "s");
        m.push("extract.enum_s", s(l.extract_enum), "s");
        m.push("extract.candidates", l.extract_candidates as f64, "count");
        m.push("snapshot.capture_s", s(l.snapshot_capture), "s");
        m.push("snapshot.bytes", l.snapshot_bytes as f64, "bytes");
        m.push("snapshot.parse_s", s(l.snapshot_parse), "s");
        m.push("snapshot.restore_s", s(l.snapshot_restore), "s");
        m.push("cache.load_s", s(self.load), "s");
        m.push("cache.save_s", s(self.save), "s");
        m.push("cache.snapshot_hits", self.snapshot_hits as f64, "count");
        m.push("cache.evictions", self.evictions as f64, "count");
        let busy: f64 = untraced.outcomes.iter().map(|o| o.time.as_secs_f64()).sum();
        m.push("pool.busy_s", busy, "s");
        m.push(
            "pool.idle_s",
            workers as f64 * s(untraced.engine_wall) - busy,
            "s",
        );
        m.push("trace.overhead_s", s(l.total) - busy, "s");
    }

    /// Where the replayed time goes, as a table on stderr: each layer's
    /// seconds and share of the replayed pipeline time.
    fn print_table(&self, untraced: &Round) {
        let l = &self.layers;
        let total = l.total.as_secs_f64();
        let rows = [
            ("saturation", l.sat),
            ("  search", l.sat_search),
            ("  apply", l.sat_apply),
            ("  rebuild", l.sat_rebuild),
            ("list manipulation", l.listmanip),
            ("function inference", l.funcinfer),
            ("loop inference", l.loopinfer),
            ("rebuilds between passes", l.infer_rebuild),
            ("extraction table", l.extract_table),
            ("extraction enumeration", l.extract_enum),
            ("snapshot capture", l.snapshot_capture),
            ("snapshot parse", l.snapshot_parse),
            ("snapshot restore", l.snapshot_restore),
        ];
        eprintln!("| layer | time (s) | share |\n|---|---|---|");
        for (name, d) in rows {
            let d = d.as_secs_f64();
            eprintln!("| {name} | {d:.3} | {:.0}% |", 100.0 * d / total);
        }
        eprintln!("| replayed total | {total:.3} | 100% |");
        let untraced_s: f64 = untraced.outcomes.iter().map(|o| o.time.as_secs_f64()).sum();
        eprintln!("| untraced job total | {untraced_s:.3} | |");
        eprintln!(
            "| determinize (probe, not in the total) | {:.3} | |",
            l.determinize.as_secs_f64()
        );
        eprintln!(
            "| snapshot dir load / save | {:.3} / {:.3} | |",
            self.load.as_secs_f64(),
            self.save.as_secs_f64()
        );
    }
}

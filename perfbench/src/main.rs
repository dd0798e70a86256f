//! Harness of the end-to-end sweep benchmark; `run.py` builds and drives it.
//!
//! ```text
//! anet-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --work <dir> [--smoke]
//! ```
//!
//! With `--trace 0` it repeats, until `--seconds` have passed, a
//! single-threaded `execute_unit` pass over every unit plus two parallel
//! dedup sweeps through `run_shard_to_file_with_opts` (jobs = available
//! parallelism), and checks the merged sweep output equals the sequential
//! records byte for byte. With `--trace 1` it runs the traced pipeline of
//! [`pipeline`] and writes its spans to `<work>/spans.tsv`. Either way it prints one JSON
//! object of raw measurements on stdout; `run.py` turns them into metrics.

mod pipeline;
mod tracer;
mod workloads;

use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use anet_sweep::{
    cluster_units, dedup_shard_lines, execute_unit, merge_shard_files, run_shard_to_file_with_opts,
    DedupStats, Manifest, Partition, RunRecord, SweepError, SweepOptions, SweepSpec, SweepUnit,
};

use pipeline::run_pipeline;
use tracer::Tracer;

/// Set-ups per run: at least `MIN_SETUPS`, and while less than
/// `SETUP_BUDGET_S` of set-up has been timed, at most `MAX_SETUPS`. `setup_s`
/// is their median, so a set-up of microseconds is not one noisy sample.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 1000;
const SETUP_BUDGET_S: f64 = 0.1;
/// Set-up time re-sampled after each repetition (see [`resample_setup`]).
const SETUP_REP_BUDGET_S: f64 = 0.01;

/// Repetitions per run at least, so the fastest pass of a unit is not a fluke.
const MIN_REPS: usize = 5;

/// Parallel sweeps per repetition. Two threads are slowed by the host's
/// other tenants more often than one, so the sweep needs more samples than a
/// unit's single-threaded latency for an equally steady fastest value.
const SWEEPS_PER_REP: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut work) = (None, 0, 10.0, false, None);
    let mut smoke = false;
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value == "1",
            "--work" => work = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        work: work.ok_or("--work is required")?,
        smoke,
    })
}

/// The prepared inputs of the timed calls.
struct Prepared {
    spec: SweepSpec,
    manifest: Manifest,
    /// The pre-filled cache as set-up left it, for workloads that use one.
    /// Every timed sweep starts from a linked copy, so each sees the same
    /// hits and stores the same misses.
    cache: Option<PathBuf>,
}

fn io(e: std::io::Error) -> SweepError {
    SweepError::Io(e)
}

fn fresh_dir(dir: &Path) -> Result<(), SweepError> {
    if dir.exists() {
        fs::remove_dir_all(dir).map_err(io)?;
    }
    fs::create_dir_all(dir).map_err(io)
}

/// Commits the file-system journal, so that untimed file churn (links,
/// removals) is not paid by the next timed call's `sync_all`.
fn settle(dir: &Path) -> Result<(), SweepError> {
    fs::File::open(dir).and_then(|d| d.sync_all()).map_err(io)
}

/// Removes every directory the run created under `work` (the report and the
/// spans stay for `run.py`) and commits the removal, so that the next run does
/// not pay for it. Nothing is removed while timing.
fn clean(work: &Path) -> Result<(), SweepError> {
    for entry in fs::read_dir(work).map_err(io)? {
        let path = entry.map_err(io)?.path();
        if path.is_dir() {
            fs::remove_dir_all(&path).map_err(io)?;
        }
    }
    settle(work)
}

/// Fresh copy of the pre-filled cache at `to` (hard links: the library only
/// reads entries and publishes new ones by rename, never rewrites them).
fn cache_copy(p: &Prepared, to: &Path) -> Result<Option<PathBuf>, SweepError> {
    let Some(template) = &p.cache else {
        return Ok(None);
    };
    fresh_dir(to)?;
    for entry in fs::read_dir(template).map_err(io)? {
        let entry = entry.map_err(io)?;
        fs::hard_link(entry.path(), to.join(entry.file_name())).map_err(io)?;
    }
    settle(to)?;
    Ok(Some(to.to_path_buf()))
}

fn options(jobs: usize, cache: Option<PathBuf>) -> SweepOptions {
    SweepOptions {
        jobs,
        resume: false,
        dedup: true,
        cache_dir: cache,
    }
}

/// Generates and parses the spec, expands the manifest and pre-fills the
/// cache with the workload's overlapping sweep.
fn setup(args: &Args, dir: &Path) -> Result<Prepared, SweepError> {
    let workload = workloads::build(&args.workload, args.seed, args.smoke)
        .ok_or_else(|| SweepError::Spec(format!("unknown workload {}", args.workload)))?;
    let spec = SweepSpec::parse(&workload.spec)?;
    let manifest = Manifest::from_spec(&spec);
    let mut cache = None;
    if let Some(text) = &workload.prefill {
        let prefill = SweepSpec::parse(text)?;
        let prefill_manifest = Manifest::from_spec(&prefill);
        let dir = dir.join("cache");
        dedup_shard_lines(
            &prefill,
            &prefill_manifest,
            1,
            Partition::RoundRobin,
            0,
            Some(&dir),
        )?;
        cache = Some(dir);
    }
    Ok(Prepared {
        spec,
        manifest,
        cache,
    })
}

/// One sweep as a user runs it: the shard entry point with dedup and the
/// cache, then the merge. Returns the merged JSONL, the dedup counters and
/// the wall time of the two calls.
fn sweep(p: &Prepared, dir: &Path, jobs: usize) -> Result<(String, DedupStats, f64), SweepError> {
    fresh_dir(dir)?;
    let opts = options(jobs, cache_copy(p, &dir.join("cache"))?);
    settle(dir)?;
    let shard = dir.join("shard-0.jsonl");
    let merged = dir.join("merged.jsonl");
    let start = Instant::now();
    let report = run_shard_to_file_with_opts(
        &p.spec,
        &p.manifest,
        1,
        Partition::RoundRobin,
        0,
        &shard,
        &opts,
    )?;
    merge_shard_files(p.manifest.len(), &[shard], &merged)?;
    let wall = start.elapsed().as_secs_f64();
    let text = fs::read_to_string(&merged).map_err(io)?;
    Ok((text, report.stats.expect("dedup was on"), wall))
}

/// A unit fails if it errs, exhausts its budget, or is pristine and did not
/// terminate with `ok`. Fault-induced `starved`/`!ok` outcomes are results.
fn unit_failed(unit: &SweepUnit, result: &Result<RunRecord, SweepError>) -> bool {
    match result {
        Err(_) => true,
        Ok(r) => {
            r.outcome == "budget-exhausted"
                || (unit.scenario.is_pristine() && !(r.outcome == "terminated" && r.ok))
        }
    }
}

/// The single-threaded pass: `execute_unit` on every manifest unit.
struct LatencyPass {
    ms: Vec<f64>,
    joined: String,
    records: Vec<Option<RunRecord>>,
    failed: usize,
}

fn latency_pass(p: &Prepared) -> LatencyPass {
    let mut pass = LatencyPass {
        ms: Vec::with_capacity(p.manifest.len()),
        joined: String::new(),
        records: Vec::with_capacity(p.manifest.len()),
        failed: 0,
    };
    for unit in &p.manifest.units {
        let start = Instant::now();
        let result = black_box(execute_unit(&p.spec, black_box(unit)));
        pass.ms.push(start.elapsed().as_secs_f64() * 1e3);
        pass.failed += usize::from(unit_failed(unit, &result));
        match result {
            Ok(record) => {
                pass.joined.push_str(&record.to_jsonl_line());
                pass.joined.push('\n');
                pass.records.push(Some(record));
            }
            Err(e) => {
                pass.joined.push_str(&format!("error: {e}\n"));
                pass.records.push(None);
            }
        }
    }
    pass
}

/// Record-level work counts: sums over the merged records of every unit.
fn record_counts(records: &[Option<RunRecord>]) -> Vec<(&'static str, u64)> {
    let mut c = [0u64; 9];
    for r in records.iter().flatten() {
        let row = [
            r.sent,
            r.delivered,
            r.total_bits,
            r.dropped,
            r.duplicated,
            r.crashed,
            u64::from(r.ok),
            u64::from(r.outcome == "starved"),
            u64::from(r.outcome == "terminated"),
        ];
        for (acc, v) in c.iter_mut().zip(row) {
            *acc += v;
        }
    }
    let names = [
        "sends",
        "deliveries",
        "wire_bits",
        "dropped",
        "duplicated",
        "crashed",
        "ok",
        "starved",
        "terminated",
    ];
    names.into_iter().zip(c).collect()
}

fn peak_rss_kb() -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64s(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|x| format!("{x:e}")).collect();
    format!("[{}]", items.join(","))
}

fn json_counts(fields: &[(&str, u64)]) -> String {
    let items: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{{}}}", items.join(","))
}

fn json_dedup(s: &DedupStats) -> String {
    json_counts(&[
        ("units", s.units as u64),
        ("clusters", s.clusters as u64),
        ("representatives_run", s.representatives_run as u64),
        ("members_by_reference", s.members_by_reference as u64),
        ("cache_hits", s.cache_hits as u64),
        ("cache_misses", s.cache_misses as u64),
    ])
}

fn fnv_hex(text: &str) -> String {
    format!("{:016x}", anet_sweep::manifest::fnv1a(text.as_bytes()))
}

/// Collects check failures; the run is correct only if none occur.
#[derive(Default)]
struct Checks(Vec<String>);

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }

    fn json(&self) -> String {
        let items: Vec<String> = self.0.iter().map(|e| json_str(e)).collect();
        format!("[{}]", items.join(","))
    }
}

fn run_setups(args: &Args) -> Result<(Prepared, Vec<f64>), SweepError> {
    let mut times: Vec<f64> = Vec::new();
    let mut prepared = None;
    settle(&args.work)?;
    while times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // A new directory each time, so nothing is removed before timing.
        let dir = args.work.join(format!("setup-{}", times.len()));
        let start = Instant::now();
        let p = setup(args, &dir)?;
        times.push(start.elapsed().as_secs_f64());
        if p.cache.is_some() {
            settle(&dir)?;
        }
        prepared = Some(p);
    }
    // The last set-up's cache is the template of every timed sweep.
    for i in 0..times.len() - 1 {
        let dir = args.work.join(format!("setup-{i}"));
        if dir.exists() {
            fs::remove_dir_all(&dir).map_err(io)?;
        }
    }
    settle(&args.work)?;
    Ok((prepared.expect("at least one set-up"), times))
}

/// More set-ups between repetitions, for at least `SETUP_REP_BUDGET_S` and at
/// least one: a run's set-up samples then span the same stretch of a shared
/// host's load as its sweeps and passes, instead of its first tenth of a second.
fn resample_setup(args: &Args, times: &mut Vec<f64>) -> Result<(), SweepError> {
    let dir = args.work.join("setup-resample");
    let begin = Instant::now();
    loop {
        if dir.exists() {
            fs::remove_dir_all(&dir).map_err(io)?;
            settle(&args.work)?;
        }
        let start = Instant::now();
        let p = black_box(setup(args, &dir)?);
        times.push(start.elapsed().as_secs_f64());
        if p.cache.is_some() {
            settle(&dir)?;
        }
        if begin.elapsed().as_secs_f64() >= SETUP_REP_BUDGET_S {
            return Ok(());
        }
    }
}

/// `--trace 0`: sweeps and latency passes until the time is up.
fn end_to_end(args: &Args, jobs: usize) -> Result<String, SweepError> {
    let (p, mut setup_s) = run_setups(args)?;
    let mut checks = Checks::default();
    let (mut sweep_s, mut unit_ms) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0usize, 0usize);
    // Digest, dedup counters and record counts of the first repetition.
    type Summary = (String, String, Vec<(&'static str, u64)>);
    let mut first: Option<Summary> = None;
    let mut peak_rss = None;
    let start = Instant::now();
    loop {
        let rep_start = Instant::now();
        let pass = latency_pass(&p);
        // The sequential pass allocates in a fixed order; the parallel
        // sweep's peak depends on which units happen to overlap.
        peak_rss.get_or_insert_with(peak_rss_kb);
        unit_ms.push(json_f64s(&pass.ms));
        attempted += pass.ms.len();
        failed += pass.failed;
        let counts = record_counts(&pass.records);
        for _ in 0..SWEEPS_PER_REP {
            // One directory for every sweep: `sweep` empties it and commits
            // the removal before it starts timing, so file churn from earlier
            // sweeps neither piles up nor lands in a timed call.
            let (merged, stats, wall) = sweep(&p, &args.work.join("rep"), jobs)?;
            sweep_s.push(wall);
            checks.expect(merged == pass.joined, || {
                "parallel sweep output differs from the sequential execute_unit records".to_owned()
            });
            let dedup = json_dedup(&stats);
            match &first {
                None => first = Some((fnv_hex(&merged), dedup, counts.clone())),
                Some((digest, d, c)) => checks.expect(
                    *digest == fnv_hex(&merged) && *d == dedup && *c == counts,
                    || {
                        "output, dedup counters or work counts changed between repetitions"
                            .to_owned()
                    },
                ),
            }
        }
        resample_setup(args, &mut setup_s)?;
        let elapsed = start.elapsed().as_secs_f64();
        let rep = rep_start.elapsed().as_secs_f64();
        if unit_ms.len() >= MIN_REPS && elapsed + rep / 2.0 > args.seconds {
            break;
        }
    }
    let (digest, dedup, counts) = first.expect("at least one repetition");
    let unit_ms = format!("[{}]", unit_ms.join(","));
    Ok(format!(
        "{{\"mode\":\"e2e\",\"jobs\":{jobs},\"units\":{},\"setup_s\":{},\"sweep_s\":{},\"unit_ms\":{},\"attempted\":{attempted},\"failed\":{failed},\"digest\":\"{digest}\",\"dedup\":{dedup},\"record_counts\":{},\"peak_rss_kb\":{},\"errors\":{}}}",
        p.manifest.len(),
        json_f64s(&setup_s),
        json_f64s(&sweep_s),
        unit_ms,
        json_counts(&counts),
        peak_rss.expect("at least one repetition"),
        checks.json(),
    ))
}

/// `--trace 1`: the traced pipeline against the library's own sweep.
fn traced(args: &Args, jobs: usize) -> Result<String, SweepError> {
    let (p, _) = run_setups(args)?;
    let mut checks = Checks::default();
    let start = Instant::now();
    let (merged, stats, par_wall) = sweep(&p, &args.work.join("par"), jobs)?;
    let pass = latency_pass(&p);
    checks.expect(merged == pass.joined, || {
        "parallel sweep output differs from the sequential execute_unit records".to_owned()
    });

    let units: Vec<&SweepUnit> = p.manifest.units.iter().collect();
    let library_clusters = cluster_units(&p.spec, &units)?;
    let (mut off_s, mut on_s) = (Vec::new(), Vec::new());
    let mut kept: Option<(Tracer, pipeline::PipelineRun)> = None;
    loop {
        for enabled in [false, true] {
            let cache = cache_copy(&p, &args.work.join("pipeline-cache"))?;
            let mut tracer = Tracer::new(enabled);
            let t = Instant::now();
            let run = run_pipeline(&p.spec, cache.as_deref(), &mut tracer)?;
            let wall = t.elapsed().as_secs_f64();
            checks.expect(run.merged == merged, || {
                "traced pipeline output differs from the library sweep".to_owned()
            });
            checks.expect(run.stats == stats, || {
                format!(
                    "traced dedup counters {:?} differ from the library's {stats:?}",
                    run.stats
                )
            });
            checks.expect(run.clusters == library_clusters, || {
                "traced clustering differs from cluster_units".to_owned()
            });
            if let Some((_, k)) = &kept {
                checks.expect(k.counts == run.counts, || {
                    "work counts changed between pipeline passes".to_owned()
                });
            }
            if enabled {
                on_s.push(wall);
                kept.get_or_insert((tracer, run));
            } else {
                off_s.push(wall);
            }
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let (tracer, run) = kept.expect("one traced pass");

    // Every executed representative's traced record equals execute_unit's.
    let mut rep_unit_s = 0.0;
    for record in &run.executed {
        let library = pass.records[record.index].as_ref();
        checks.expect(library == Some(record), || {
            format!(
                "traced record of unit {} differs from execute_unit",
                record.index
            )
        });
        rep_unit_s += pass.ms[record.index] * 1e-3;
    }
    let spans = args.work.join("spans.tsv");
    tracer.write(&spans).map_err(io)?;

    let attempted = pass.ms.len();
    Ok(format!(
        "{{\"mode\":\"trace\",\"jobs\":{jobs},\"units\":{},\"attempted\":{attempted},\"failed\":{},\"digest\":\"{}\",\"dedup\":{},\"work_counts\":{},\"par_wall_s\":{par_wall:e},\"rep_unit_s\":{rep_unit_s:e},\"traced_unit_s\":{:e},\"pipeline_off_s\":{},\"pipeline_on_s\":{},\"spans\":{},\"errors\":{}}}",
        p.manifest.len(),
        pass.failed,
        fnv_hex(&merged),
        json_dedup(&stats),
        json_counts(&run.counts.fields()),
        tracer.total_s("sweep.unit"),
        json_f64s(&off_s),
        json_f64s(&on_s),
        json_str(&spans.display().to_string()),
        checks.json(),
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("anet-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let result = if args.trace {
        traced(&args, jobs)
    } else {
        end_to_end(&args, jobs)
    }
    .and_then(|line| clean(&args.work).map(|()| line));
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("anet-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

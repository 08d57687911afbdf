//! The ERA index benchmark: build → persist → reopen → serve.
//!
//! ```text
//! cargo run --release --manifest-path erabench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` one run drives the whole lifecycle of the index through
//! the public API — generate the seeded input and write the raw dataset file,
//! `SuffixIndexBuilder::build_from_path`, `save_to_file`, `open_file_with`,
//! then a closed-loop query stream through `QueryEngine::run` — checks every
//! answer against the benchmark's own oracle, and prints the end-to-end
//! metrics. With `--trace 1` it replays construction, persistence and
//! serving through the layers' public functions instead and prints the
//! per-layer metrics (see `trace.rs`). The last line of standard output is
//! always one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! Work files live under `.bench_work/` in the current directory and are
//! removed before the run ends.

mod gen;
mod oracle;
mod trace;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use era::string_store::Alphabet;
use era::{EraConfig, QueryBatch, QueryEngine, SuffixIndex};

use gen::{QueryGen, Rng};
use oracle::KmerTable;

/// Which text a workload indexes.
#[derive(Clone, Copy)]
pub enum Text {
    UniformDna,
    GenomeLike,
    ProteinLike,
}

/// One benchmark workload: input, build configuration and serving shape.
pub struct Workload {
    pub name: &'static str,
    pub text: Text,
    /// Body length in symbols (the terminal comes on top).
    pub len: usize,
    /// Build over the 2-bit/5-bit packed store (packing counts as build time).
    pub packed: bool,
    /// Construction workers: 1 = serial scheduler, 2 = shared-memory.
    pub threads: usize,
    pub memory_budget: usize,
    /// Decoded-block cache of the reopened index (only store-backed serving,
    /// i.e. packed catalogs, consults it).
    pub cache_bytes: usize,
    /// Queries per batch of the closed-loop stream.
    pub batch: usize,
    /// Rounds per run; each builds, saves and reopens once (the medians
    /// over the rounds are reported).
    pub rounds: usize,
}

const KIB: usize = 1 << 10;
const MIB: usize = 1 << 20;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "build-dna-lowmem",
        text: Text::UniformDna,
        len: MIB,
        packed: false,
        threads: 1,
        memory_budget: MIB / 4,
        cache_bytes: 0,
        batch: 256,
        rounds: 5,
    },
    Workload {
        name: "build-genome-packed",
        text: Text::GenomeLike,
        len: 256 * KIB,
        packed: true,
        threads: 2,
        memory_budget: 128 * KIB,
        cache_bytes: 2 * 256 * KIB,
        batch: 128,
        rounds: 5,
    },
    Workload {
        name: "serve-protein-spill",
        text: Text::ProteinLike,
        len: MIB,
        packed: true,
        threads: 1,
        memory_budget: 8 * MIB,
        cache_bytes: MIB / 8,
        batch: 16,
        rounds: 8,
    },
];

/// Repetitions per round of the millisecond-scale phases.
const SETUP_REPS: usize = 20;
const SAVE_REPS: usize = 5;
const OPEN_REPS: usize = 5;
/// Every round serves at least this many batches, so the round's p99 (on
/// standard error) has ten batches beyond it.
pub const MIN_BATCHES: usize = 1000;
/// Untimed verification batches answered by each freshly built index.
const BUILT_CHECK_BATCHES: usize = 8;

impl Workload {
    pub fn alphabet(&self) -> Alphabet {
        match self.text {
            Text::UniformDna | Text::GenomeLike => Alphabet::dna(),
            Text::ProteinLike => Alphabet::protein(),
        }
    }

    pub fn generate(&self, seed: u64) -> Vec<u8> {
        let mut rng = Rng::new(gen::stream_seed(seed, 1));
        match self.text {
            Text::UniformDna => gen::uniform_dna(self.len, &mut rng),
            Text::GenomeLike => gen::genome_like(self.len, &mut rng),
            Text::ProteinLike => gen::protein_like(self.len, &mut rng),
        }
    }

    pub fn query_seed(&self, seed: u64) -> u64 {
        gen::stream_seed(seed, 2)
    }

    pub fn builder(&self) -> era::SuffixIndexBuilder {
        SuffixIndex::builder()
            .memory_budget(self.memory_budget)
            .threads(self.threads)
            .packed(self.packed)
            .cache_bytes(self.cache_bytes)
    }

    pub fn serve_config(&self) -> EraConfig {
        EraConfig { cache_bytes: self.cache_bytes, ..EraConfig::default() }
    }
}

/// Attempted/failed operation counts and the correctness verdict of a run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

impl Tally {
    fn new() -> Self {
        Tally { correct: true, ..Tally::default() }
    }

    /// Records one checked operation; a wrong answer fails the operation and
    /// the run's correctness.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.correct = false;
            eprintln!("check failed: {what}");
        }
    }

    /// Checks every answer of a batch response against the oracle.
    pub fn check_batch(
        &mut self,
        oracle: &KmerTable<'_>,
        batch: &QueryBatch,
        resp: &era::QueryResponse,
    ) {
        if resp.results.len() != batch.len() {
            self.check(false, "batch returned the wrong number of answers");
            return;
        }
        for (q, a) in batch.queries().iter().zip(&resp.results) {
            let ok = oracle.check(q, a);
            if !ok {
                eprintln!("{q:?} answered {a:?}");
            }
            self.check(ok, "a query answer");
        }
    }
}

/// One metric as printed in the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank percentile `p` (0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Runs `f` once, returning its result and wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The work directory of one run, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    fn new(workload: &str) -> std::io::Result<Self> {
        let dir = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Generates the input and writes the raw, terminated dataset file.
///
/// A set-up after the first overwrites the file in place instead of
/// truncating it first: truncation drops the previous copy's page-cache
/// pages, waiting for any of them under writeback, and made the time of one
/// set-up swing by a factor of ten between repetitions.
pub fn setup(w: &Workload, seed: u64, raw: &Path) -> std::io::Result<Vec<u8>> {
    let mut text = w.generate(seed);
    text.push(0);
    let mut file =
        std::fs::OpenOptions::new().write(true).create(true).truncate(false).open(raw)?;
    file.write_all(&text)?;
    file.set_len(text.len() as u64)?;
    Ok(text)
}

type BoxError = Box<dyn std::error::Error>;

/// Samples of the timed phases, gathered over every round of a run.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    build_s: Vec<f64>,
    save_s: Vec<f64>,
    open_s: Vec<f64>,
    batch_s: Vec<f64>,
    answered: usize,
    /// Per round: the median of its batch latencies.
    p50_s: Vec<f64>,
}

/// The untraced lifecycle: returns the end-to-end metrics.
///
/// A run is `w.rounds` whole rounds of the same operations: build, save,
/// reopen, then an equal share of the query stream with the round's set-ups
/// between its batches. Spreading every
/// phase over the run, rather than timing each in one block, lets a burst of
/// load from outside the benchmark touch a few samples of every metric
/// instead of all samples of one.
fn run_lifecycle(
    w: &Workload,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> Result<Vec<Metric>, BoxError> {
    let work = WorkDir::new(w.name)?;
    let raw = work.0.join("dataset.raw");
    let catalog = work.0.join("index.eracat");
    let alphabet = w.alphabet();
    let mut samples = Samples::default();
    let (text, s) = timed(|| setup(w, seed, &raw));
    let text = text?;
    samples.setup_s.push(s);
    let mut bytes_read = None;
    let mut catalog_bytes = None;
    let mut peak_rss = f64::NAN;
    let mut verify = None;
    let segment = Duration::from_secs_f64(seconds / w.rounds as f64);

    for round in 0..w.rounds {
        // Build from the dataset file; construction I/O must repeat exactly.
        let (built, s) = timed(|| w.builder().build_from_path(&raw, alphabet.clone()));
        let built = built?;
        samples.build_s.push(s);
        let read = built.report().io.bytes_read;
        tally.check(
            *bytes_read.get_or_insert(read) == read,
            "construction I/O differs between builds",
        );

        // Persist and reopen.
        for _ in 0..SAVE_REPS {
            let (r, s) = timed(|| built.save_to_file(&catalog));
            r?;
            samples.save_s.push(s);
        }
        let size = std::fs::metadata(&catalog)?.len();
        tally.check(
            *catalog_bytes.get_or_insert(size) == size,
            "catalog size differs between saves",
        );
        let mut reopened = None;
        for _ in 0..OPEN_REPS {
            drop(reopened.take());
            let (r, s) = timed(|| SuffixIndex::open_file_with(&catalog, &w.serve_config()));
            reopened = Some(r?);
            samples.open_s.push(s);
        }
        let reopened = reopened.ok_or("no open ran")?;

        if round == 0 {
            // The verification structures are built only now, after the
            // high-water mark was read; every check runs outside the timed
            // phases.
            peak_rss = peak_rss_mib();
        }
        let (oracle, queries) = verify.get_or_insert_with(|| {
            let body = &text[..text.len() - 1];
            (KmerTable::new(&text), QueryGen::new(body, alphabet.symbols(), w.query_seed(seed)))
        });
        for index in [&built, &reopened] {
            tally.check(
                oracle::one_leaf_per_suffix(&index.tree().lexicographic_suffixes(), text.len()),
                "index does not hold exactly one leaf per suffix",
            );
        }
        let built_engine = built.engine();
        for _ in 0..BUILT_CHECK_BATCHES {
            let batch = queries.batch(w.batch);
            let resp = built_engine.run(&batch)?;
            tally.check_batch(oracle, &batch, &resp);
        }
        drop(built_engine);
        drop(built);

        // This round's share of the closed-loop stream against the reopened
        // index: one client, one engine worker, the next batch only after the
        // previous one returned. The round's set-ups (generate the input and
        // write the raw dataset file again) run between batches, spread
        // evenly over the serving time: run back to back, they caught the
        // machine in one state, and the set-up medians of one run's rounds
        // ranged from 2.1 to 5.0 ms.
        let engine: QueryEngine<'_> = reopened.engine().threads(1);
        let (start, first, mut setups) = (Instant::now(), samples.batch_s.len(), 0);
        loop {
            let elapsed = start.elapsed();
            while setups < SETUP_REPS
                && elapsed >= segment.mul_f64(setups as f64 / SETUP_REPS as f64)
            {
                let (again, s) = timed(|| setup(w, seed, &raw));
                samples.setup_s.push(s);
                tally.check(again? == text, "the seeded input differs between set-ups");
                setups += 1;
            }
            if samples.batch_s.len() - first >= MIN_BATCHES && elapsed >= segment {
                break;
            }
            let batch = queries.batch(w.batch);
            let (resp, s) = timed(|| engine.run(&batch));
            let resp = resp?;
            samples.batch_s.push(s);
            samples.answered += resp.results.len();
            tally.check_batch(oracle, &batch, &resp);
        }
        let lat = &samples.batch_s[first..];
        samples.p50_s.push(percentile(lat, 50.0));
        eprintln!(
            "round {round}: set-up {:.4} s, build {:.3} s, save {:.4} s, open {:.4} s, {} batches, p50 {:.3} ms, p99 {:.3} ms",
            median(&samples.setup_s[1 + round * SETUP_REPS..1 + (round + 1) * SETUP_REPS]),
            samples.build_s[round],
            median(&samples.save_s[round * SAVE_REPS..]),
            median(&samples.open_s[round * OPEN_REPS..]),
            lat.len(),
            samples.p50_s[round] * 1e3,
            percentile(lat, 99.0) * 1e3,
        );
    }

    let symbols = text.len() as f64;
    let lat = &samples.batch_s;
    println!(
        "{}: {} symbols, {} rounds, {} batches of {} queries",
        w.name,
        symbols,
        w.rounds,
        lat.len(),
        w.batch
    );
    Ok(vec![
        metric("setup_s", median(&samples.setup_s), "s"),
        metric("build_symbols_per_s", symbols / median(&samples.build_s), "1/s"),
        metric("build_read_amplification", bytes_read.unwrap_or(0) as f64 / symbols, "x"),
        metric("peak_rss_mib", peak_rss, "MiB"),
        metric("index_bytes_per_symbol", catalog_bytes.unwrap_or(0) as f64 / symbols, "B/symbol"),
        metric("save_s", median(&samples.save_s), "s"),
        metric("open_s", median(&samples.open_s), "s"),
        metric("queries_per_s", samples.answered as f64 / lat.iter().sum::<f64>(), "1/s"),
        metric("batch_p50_ms", median(&samples.p50_s) * 1e3, "ms"),
    ])
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn json_line(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { format!("{:?}", m.value) } else { "null".into() };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("erabench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("erabench: unknown workload {:?} (one of {})", args.workload, names.join(", "));
        std::process::exit(2);
    };
    let mut tally = Tally::new();
    let result = if args.trace {
        trace::run(w, args.seed, &mut tally)
    } else {
        run_lifecycle(w, args.seed, args.seconds, &mut tally)
    };
    match result {
        Ok(metrics) => {
            for m in &metrics {
                println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", json_line(&tally, &metrics));
        }
        Err(e) => {
            eprintln!("erabench: {} failed: {e}", w.name);
            std::process::exit(1);
        }
    }
}

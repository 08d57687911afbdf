//! The traced run: construction, persistence and serving replayed through
//! the layers' public functions, each call timed from the benchmark's side.
//!
//! I/O and cache figures come from `StringStore::stats()` deltas around each
//! call and from the engine's `QueryStats`; nothing inside the program is
//! instrumented. The replay drives, in order: `vertical_partition`; per
//! group `collect_occurrences`, `prepare_group` and `build_partition`;
//! `PartitionedSuffixTree::new` (the freeze into the flat serving layout);
//! `encode_catalog`, `commit_catalog` and `Catalog::open`; and
//! `QueryEngine::run` beside `FlatTree::try_count` on the same patterns. It
//! asserts that the replay built the same tree as the timed
//! `build_from_path` of the same run. A two-worker workload is replayed
//! serially with each worker's read-ahead capacity, so every scan reads the
//! same bytes as in the parallel build; its scheduler figures come from
//! `ConstructionReport::per_node`.

use era::horizontal::build::build_partition;
use era::horizontal::prepare::prepare_group;
use era::horizontal::HorizontalParams;
use era::scan::collect_occurrences;
use era::string_store::{DiskStore, IoSnapshot, PackedCodec, PackedDiskStore, StringStore};
use era::suffix_tree::catalog::{commit_catalog, encode_catalog, Catalog, TextSegment};
use era::suffix_tree::PartitionedSuffixTree;
use era::{
    vertical_partition, CacheSnapshot, CommitProtocol, GroupScheduler, SerialScheduler,
    SharedMemoryScheduler, StdVfs, SuffixIndex,
};

use crate::gen::QueryGen;
use crate::oracle::KmerTable;
use crate::{median, metric, percentile, setup, timed, BoxError, Metric, Tally, WorkDir, Workload};

/// Repetitions of each catalog step (medians are reported).
const CATALOG_REPS: usize = 5;
/// Batches of the traced query replay: enough for ten beyond the p99.
const TRACE_BATCHES: usize = crate::MIN_BATCHES;
/// Minimum wall time of the decode-rate measurement.
const DECODE_SECONDS: f64 = 0.2;

/// Accumulated time and I/O of one layer across its calls.
#[derive(Default)]
struct Layer {
    time_s: f64,
    calls: u64,
    io: IoSnapshot,
}

impl Layer {
    fn record<T>(&mut self, store: &dyn StringStore, f: impl FnOnce() -> T) -> T {
        let before = store.stats().snapshot();
        let (out, s) = timed(f);
        self.time_s += s;
        self.calls += 1;
        self.io = self.io.merged(&store.stats().snapshot().since(&before));
        out
    }
}

pub fn run(w: &Workload, seed: u64, tally: &mut Tally) -> Result<Vec<Metric>, BoxError> {
    let work = WorkDir::new(w.name)?;
    let raw = work.0.join("dataset.raw");
    let catalog_path = work.0.join("index.eracat");
    let text = setup(w, seed, &raw)?;
    let text_len = text.len();
    let alphabet = w.alphabet();

    // The timed build of this run: the tree the replay must reproduce, the
    // scheduler's per-worker figures, and the untraced build time the
    // tracing overhead is measured against.
    let (built, build_s) = timed(|| w.builder().build_from_path(&raw, alphabet.clone()));
    let built = built?;
    let report = built.report().clone();
    built.save_to_file(&catalog_path)?;
    let reopened = SuffixIndex::open_file_with(&catalog_path, &w.serve_config())?;

    // --- Construction replay. ---
    let config = w.builder().peek_config().clone();
    let layout = config.memory_layout(&alphabet)?;
    let block = config.input_buffer_size.max(4 << 10);
    let (store, pack_s): (Box<dyn StringStore>, f64) = if w.packed {
        let raw_store = DiskStore::open(&raw, alphabet.clone(), block)?;
        let packed_block = (block * alphabet.bits_per_symbol() as usize).div_ceil(8).max(512);
        let packed_path = work.0.join("dataset.packed");
        let (store, s) =
            timed(|| PackedDiskStore::pack_store(&raw_store, &packed_path, packed_block));
        (Box::new(store?.cleanup_on_drop(true)), s)
    } else {
        (Box::new(DiskStore::open(&raw, alphabet.clone(), block)?), 0.0)
    };
    let store: &dyn StringStore = store.as_ref();
    let r_capacity = if w.threads > 1 {
        SharedMemoryScheduler::new(store, w.threads).worker_r_capacity(&layout)
    } else {
        SerialScheduler::new(store).worker_r_capacity(&layout)
    };
    let params = HorizontalParams {
        r_capacity,
        range_policy: config.range_policy,
        min_range: config.min_range,
        seek_optimization: config.seek_optimization,
    };

    let mut vertical = Layer::default();
    let partitioning = vertical
        .record(store, || vertical_partition(store, layout.fm, config.group_virtual_trees))?;
    let (mut scan, mut prepare, mut assemble) =
        (Layer::default(), Layer::default(), Layer::default());
    let mut partitions = Vec::new();
    for group in &partitioning.groups {
        let prefixes: Vec<Vec<u8>> = group.prefixes.iter().map(|p| p.prefix.clone()).collect();
        let occurrences = scan.record(store, || collect_occurrences(store, &prefixes))?;
        let prepared =
            prepare.record(store, || prepare_group(store, &prefixes, &occurrences, &params))?;
        for p in prepared.iter().filter(|p| !p.leaves.is_empty()) {
            partitions.push(assemble.record(store, || build_partition(store.len(), p)));
        }
    }
    let (tree, freeze_s) = timed(|| PartitionedSuffixTree::new(store.len(), partitions));
    let stats = tree.stats();
    let replay_bytes = vertical.io.bytes_read + scan.io.bytes_read + prepare.io.bytes_read;
    tally.check(partitioning.partition_count() == report.partitions, "replay partition count");
    tally.check(partitioning.group_count() == report.virtual_trees, "replay group count");
    tally.check(
        tree.leaf_count() == text_len && report.tree.leaves == text_len,
        "replay leaf count",
    );
    tally.check(stats.nodes == report.tree.nodes, "replay node count");
    tally.check(&tree == built.tree(), "replay tree differs from the timed build");
    tally.check(replay_bytes == report.io.bytes_read, "replay read other bytes than the build");
    drop(tree);

    // --- Scheduler figures of the timed build. ---
    let busy: Vec<f64> = if report.per_node.is_empty() {
        vec![report.horizontal_time.as_secs_f64()]
    } else {
        report.per_node.iter().map(|n| n.elapsed.as_secs_f64()).collect()
    };
    let busy_min = busy.iter().copied().fold(f64::INFINITY, f64::min);
    let busy_max = busy.iter().copied().fold(0.0, f64::max);
    // The replay runs every group on one thread, so the untraced reference
    // it is compared with is the build's work, not its wall time: the wall
    // time plus what the other workers were busy beside the slowest one.
    let untraced_work_s = build_s + busy.iter().sum::<f64>() - busy_max;

    // --- Packed codec: decode the whole payload. ---
    let codec = PackedCodec::new(&alphabet);
    let body = &text[..text_len - 1];
    let payload = codec.pack_body(body)?;
    let mut out = vec![0u8; body.len()];
    let (mut decoded, mut decode_s) = (0usize, 0.0);
    while decode_s < DECODE_SECONDS {
        let ((), s) = timed(|| codec.unpack(&payload, 0, body.len(), &mut out));
        decoded += body.len();
        decode_s += s;
    }
    tally.check(out == body, "packed decode differs from the text");

    // --- Catalog: encode, commit, parse. ---
    let segment = if built.is_packed() {
        TextSegment::Packed { payload: &payload, text_len }
    } else {
        TextSegment::Raw(&text)
    };
    let (mut encode_s, mut commit_s, mut parse_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut catalog_bytes = 0usize;
    let trace_catalog = work.0.join("trace.eracat");
    for _ in 0..CATALOG_REPS {
        let (enc, s) =
            timed(|| encode_catalog(built.generation(), segment, built.alphabet(), built.tree()));
        let enc = enc?;
        encode_s.push(s);
        catalog_bytes = enc.bytes.len();
        let (r, s) = timed(|| commit_catalog(&trace_catalog, &StdVfs, CommitProtocol::Sound, &enc));
        r?;
        commit_s.push(s);
        let (parsed, s) = timed(|| Catalog::open(&trace_catalog));
        parse_s.push(s);
        let parsed = parsed?;
        tally.check(parsed.into_tree() == *built.tree(), "catalog round trip changed the tree");
    }
    drop(built);

    // --- Serving: the engine beside bare descents on the same patterns. ---
    let oracle = KmerTable::new(&text);
    let mut queries = QueryGen::new(body, alphabet.symbols(), w.query_seed(seed));
    let batches: Vec<_> = (0..TRACE_BATCHES).map(|_| queries.batch(w.batch)).collect();
    let engine = reopened.engine().threads(1);
    let (mut visits, mut store_bytes) = (0usize, 0u64);
    let mut cache = CacheSnapshot::default();
    let mut answered = 0usize;
    let mut latencies = Vec::with_capacity(batches.len());
    for batch in &batches {
        let (resp, s) = timed(|| engine.run(batch));
        let resp = resp?;
        latencies.push(s);
        visits += resp.stats.partition_visits;
        store_bytes += resp.stats.io.bytes_read;
        cache = cache.merged(&resp.stats.cache);
        answered += resp.results.len();
        tally.check_batch(&oracle, batch, &resp);
    }
    let tree = reopened.tree();
    let mut counts = Vec::with_capacity(answered);
    let ((), descend_s) = timed(|| {
        for batch in &batches {
            for q in batch.queries() {
                let mut n = 0usize;
                for p in tree.trie().candidates(q.pattern()) {
                    n += tree.partitions()[p as usize]
                        .tree
                        .try_count(&text[..], q.pattern())
                        .expect("an in-memory text cannot fail");
                }
                counts.push(n);
            }
        }
    });
    for (q, n) in batches.iter().flat_map(|b| b.queries()).zip(counts) {
        tally.check(oracle.occurrences(q.pattern()).len() == n, "bare descent count");
    }

    // The same batches on two engine workers, which `QueryEngine::run`
    // spawns anew for every batch.
    let engine = reopened.engine().threads(2);
    let mut engine_2w_s = 0.0;
    for batch in &batches {
        let (resp, s) = timed(|| engine.run(batch));
        engine_2w_s += s;
        tally.check_batch(&oracle, batch, &resp?);
    }

    let traced_build_s =
        pack_s + vertical.time_s + scan.time_s + prepare.time_s + assemble.time_s + freeze_s;
    let per_query = |v: f64| v / answered as f64;
    let lookups = cache.hits + cache.misses;
    println!(
        "{}: traced replay {:.3} s vs untraced build work {:.3} s; {} groups, {} partitions",
        w.name,
        traced_build_s,
        untraced_work_s,
        partitioning.group_count(),
        partitioning.partition_count()
    );
    Ok(vec![
        metric("vertical.time_s", vertical.time_s, "s"),
        metric("vertical.scans", partitioning.scans as f64, "count"),
        metric("vertical.bytes_read", vertical.io.bytes_read as f64, "B"),
        metric("vertical.partitions", partitioning.partition_count() as f64, "count"),
        metric("vertical.groups", partitioning.group_count() as f64, "count"),
        metric("scan.time_s", scan.time_s, "s"),
        metric("scan.calls", scan.calls as f64, "count"),
        metric("scan.bytes_read", scan.io.bytes_read as f64, "B"),
        metric("scan.mb_per_s", scan.io.bytes_read as f64 / scan.time_s / 1e6, "MB/s"),
        metric("prepare.time_s", prepare.time_s, "s"),
        metric("prepare.scans", prepare.io.full_scans as f64, "count"),
        metric("prepare.bytes_read", prepare.io.bytes_read as f64, "B"),
        metric("prepare.blocks_skipped", prepare.io.blocks_skipped as f64, "count"),
        metric("assemble.time_s", assemble.time_s, "s"),
        metric("freeze.time_s", freeze_s, "s"),
        metric("freeze.nodes", stats.nodes as f64, "count"),
        metric("freeze.bytes_per_node", stats.bytes_per_node(), "B"),
        metric("pipeline.makespan_s", report.makespan().as_secs_f64(), "s"),
        metric("pipeline.worker_busy_min_s", busy_min, "s"),
        metric("pipeline.worker_busy_max_s", busy_max, "s"),
        metric("pack.time_s", pack_s, "s"),
        metric("packed.decode_mb_per_s", decoded as f64 / decode_s / 1e6, "MB/s"),
        metric("catalog.encode_s", median(&encode_s), "s"),
        metric("catalog.commit_s", median(&commit_s), "s"),
        metric("catalog.parse_s", median(&parse_s), "s"),
        metric("catalog.bytes", catalog_bytes as f64, "B"),
        metric("query.engine_s", latencies.iter().sum(), "s"),
        metric("query.descend_s", descend_s, "s"),
        metric("query.engine_2w_s", engine_2w_s, "s"),
        metric("query.batch_p99_ms", percentile(&latencies, 99.0) * 1e3, "ms"),
        metric("query.visits_per_query", per_query(visits as f64), "count"),
        metric("query.store_bytes_per_query", per_query(store_bytes as f64), "B"),
        metric(
            "cache.hit_rate",
            if lookups == 0 { 0.0 } else { cache.hits as f64 / lookups as f64 },
            "ratio",
        ),
        metric("cache.misses", cache.misses as f64, "count"),
        metric("cache.evictions", cache.evictions as f64, "count"),
        metric("cache.decoded_bytes", cache.decoded_bytes as f64, "B"),
        metric("trace.build_s", traced_build_s, "s"),
        metric("trace.overhead", traced_build_s / untraced_work_s - 1.0, "ratio"),
    ])
}

//! The two workloads: their shapes, the seeded inputs, the deployment
//! each stands up, and the closed-loop measured phase.

use crate::oracle::{check_basic, check_secure, LiveTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sknn_core::{
    DataOwner, DatasetOptions, FederationConfig, PoolConfig, PreparedQuery, Protocol, QueryProfile,
    ShardingConfig, SknnEngine, SknnError, Table, TransportKind,
};
use sknn_protocols::stats::CommSnapshot;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Paillier modulus size every workload runs at.
pub const KEY_BITS: usize = 1024;
/// Attributes per record.
pub const ATTRIBUTES: usize = 6;
/// Worker threads (the engine's `threads`, and at most as many clients).
pub const THREADS: usize = 2;
/// The dataset name every workload registers.
pub const DATASET: &str = "bench";

/// What one workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Workload name, as on the command line.
    pub name: &'static str,
    /// SkNN_b or SkNN_m.
    pub protocol: Protocol,
    /// Live records.
    pub n: usize,
    /// Neighbours per query.
    pub k: usize,
    /// Distance-domain bits (the paper's `l`).
    pub l: usize,
    /// Largest attribute value: the largest `v` with `m·v² < 2^l − 1`.
    pub max_value: u64,
    /// Where C2 runs.
    pub transport: TransportKind,
    /// Shards the dataset is split into (one C2 session each).
    pub shards: usize,
    /// Queries per `run_batch` call.
    pub batch: usize,
    /// Whether the dataset is durable and churned by write rounds.
    pub churn: bool,
}

impl Shape {
    /// The shape of workload `name`.
    pub fn named(name: &str) -> Option<Shape> {
        match name {
            "secure-serial" => Some(Shape {
                name: "secure-serial",
                protocol: Protocol::Secure,
                n: 6,
                k: 2,
                l: 8,
                max_value: 6,
                transport: TransportKind::InProcess,
                shards: 1,
                batch: 1,
                churn: false,
            }),
            "churn-tcp" => Some(Shape {
                name: "churn-tcp",
                protocol: Protocol::Basic,
                n: 32,
                k: 5,
                l: 12,
                max_value: 26,
                transport: TransportKind::Tcp,
                shards: 2,
                batch: 2,
                churn: true,
            }),
            _ => None,
        }
    }

    /// The engine configuration for this shape (store root aside).
    pub fn config(&self, seed: u64) -> FederationConfig {
        FederationConfig {
            key_bits: KEY_BITS,
            distance_bits: Some(self.l),
            max_query_value: self.max_value,
            transport: self.transport,
            threads: THREADS,
            c2_seed: seed ^ 0xC2C2,
            pool: PoolConfig {
                seed: Some(seed ^ 0x9001),
                ..PoolConfig::default()
            },
            sharding: ShardingConfig {
                shards: self.shards,
                sessions: self.shards,
            },
            ..FederationConfig::default()
        }
    }

    /// A uniformly random record of this shape's value domain.
    pub fn record(&self, rng: &mut StdRng) -> Vec<u64> {
        (0..ATTRIBUTES)
            .map(|_| rng.gen_range(0..=self.max_value))
            .collect()
    }

    /// Checks one answer against the plaintext oracle.
    pub fn check(&self, table: &Table, point: &[u64], got: &[Vec<u64>]) -> Result<(), String> {
        match self.protocol {
            Protocol::Basic => check_basic(table, point, self.k, got),
            Protocol::Secure => check_secure(table, point, self.k, got),
        }
    }
}

/// Independent, seed-derived random streams, one per purpose, so that
/// e.g. the number of queries a run manages does not shift the records a
/// write round appends.
#[derive(Clone, Copy, Debug)]
pub enum Stream {
    Key,
    Table,
    Encrypt,
    Queries,
    Protocol,
    Writes,
    Probe,
    User,
    WarmUp,
}

/// The random stream `stream` of workload seed `seed`.
pub fn rng(seed: u64, stream: Stream) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (stream as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03),
    )
}

/// How long the client thinks after topping the offline pools up: a
/// background refill thread that raced the top-up finishes its batch
/// (at most 32 encryption units) within this, so neither Bob's timed
/// encryptions nor the next batch share a core with it.
const REFILL_SETTLE: Duration = Duration::from_millis(200);

/// A stood-up deployment plus the plaintext mirror the oracle checks
/// against.
pub struct Deployment {
    pub engine: SknnEngine,
    pub live: LiveTable,
    pub config: FederationConfig,
    /// The durable store root (churn only).
    pub store: Option<PathBuf>,
}

/// Stands one deployment up: seeded key generation, engine and C2
/// sessions, table encryption and registration (write-ahead to `store`
/// when given), and offline-pool prewarm — everything before the first
/// timed operation.
pub fn stand_up(shape: &Shape, seed: u64, store: Option<&Path>) -> Result<Deployment, SknnError> {
    let owner = DataOwner::new(KEY_BITS, &mut rng(seed, Stream::Key));
    let config = shape.config(seed);
    let mut table_rng = rng(seed, Stream::Table);
    let rows: Vec<Vec<u64>> = (0..shape.n).map(|_| shape.record(&mut table_rng)).collect();
    let table = Table::new(rows.clone())?;
    let opts = DatasetOptions {
        distance_bits: Some(shape.l),
        max_query_value: shape.max_value,
    };
    let mut enc_rng = rng(seed, Stream::Encrypt);
    let engine = match store {
        Some(root) => {
            let mut engine = SknnEngine::open_dir(owner, config.clone(), root)?;
            engine.register_dataset_persistent_with(DATASET, &table, opts, &mut enc_rng)?;
            engine
        }
        None => {
            let mut engine = SknnEngine::setup_with_owner(owner, config.clone())?;
            engine.register_dataset_with(DATASET, &table, opts, &mut enc_rng)?;
            engine
        }
    };
    engine.prewarm_pools(config.pool.capacity);
    Ok(Deployment {
        engine,
        live: LiveTable::new(&rows),
        config,
        store: store.map(Path::to_path_buf),
    })
}

/// Counts operations and failures; every failure is kept for the report.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one operation's outcome.
    pub fn record(&mut self, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.failures.len() < 8 {
                    self.failures.push(e);
                }
                false
            }
        }
    }
}

/// One query's measurements.
#[derive(Debug)]
pub struct QuerySample {
    /// Caller-observed latency (the whole batch's wall time).
    pub latency: Duration,
    pub profile: QueryProfile,
}

/// One batch's measurements.
#[derive(Debug)]
pub struct BatchSample {
    pub wall: Duration,
    pub queries: usize,
    /// Inter-cloud traffic over the batch (nothing else runs meanwhile).
    pub comm: Option<CommSnapshot>,
}

/// The timings of one write round and its parts.
#[derive(Debug, Default)]
pub struct WriteSample {
    pub round: Duration,
    pub encrypt_per_record: Duration,
    pub append_per_record: Duration,
    pub tombstone: Duration,
    pub flush: Duration,
    /// Bytes the store grew by over the append, per record.
    pub bytes_per_append: f64,
}

/// Everything the measured phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    pub queries: Vec<QuerySample>,
    pub batches: Vec<BatchSample>,
    pub writes: Vec<WriteSample>,
    pub correct_queries: u64,
    /// Bob's query encryptions timed between batches, in ms.
    pub user_encrypt_ms: Vec<f64>,
    /// The last point answered correctly, with its answer.
    pub last_answer: Option<(Vec<u64>, Vec<Vec<u64>>)>,
    /// Wall time of the loop, less think time and the time spent timing
    /// Bob.
    pub wall: Duration,
}

/// Runs the closed loop for `budget`: one client submits a `run_batch` of
/// `shape.batch` queries, waits for the outcomes and checks each against
/// the oracle; a churn workload runs one write round between batches, so
/// the phase ends on a batch answered over the final live set.
///
/// Between batches the client thinks while the clouds' offline pools
/// refill (synchronously topped up here, so every batch starts from the
/// same warm-pool state instead of racing the refill threads for the two
/// cores), then times Bob's query encryption `user_encrypts` times —
/// spreading those samples over the whole phase keeps them from all
/// landing in one slow or fast stretch of a shared machine. Neither the
/// think time nor Bob's time is charged to `Phase::wall`.
pub fn measured_phase(
    shape: &Shape,
    dep: &mut Deployment,
    seed: u64,
    budget: Duration,
    user_encrypts: usize,
    tally: &mut Tally,
) -> Phase {
    let mut query_rng = rng(seed, Stream::Queries);
    let mut proto_rng = rng(seed, Stream::Protocol);
    let mut write_rng = rng(seed, Stream::Writes);
    let mut user_rng = rng(seed, Stream::User);
    let mut phase = Phase::default();
    let mut user_time = Duration::ZERO;
    let start = Instant::now();
    let mut think = Duration::ZERO;
    while start.elapsed() < budget {
        let t = Instant::now();
        dep.engine.prewarm_pools(dep.config.pool.capacity);
        std::thread::sleep(REFILL_SETTLE);
        think += t.elapsed();
        for _ in 0..user_encrypts {
            let point = shape.record(&mut user_rng);
            let t = Instant::now();
            let q = dep.engine.query_user().encrypt_query(&point, &mut user_rng);
            let dt = t.elapsed();
            user_time += dt;
            phase.user_encrypt_ms.push(dt.as_secs_f64() * 1e3);
            tally.record(q.map(|_| ()).map_err(|e| format!("encrypt_query: {e}")));
        }
        if shape.churn && !phase.batches.is_empty() {
            match write_round(shape, dep, &mut write_rng) {
                Ok(s) => {
                    tally.record(Ok(()));
                    phase.writes.push(s);
                }
                Err(e) => {
                    tally.record(Err(e));
                }
            }
        }
        let points: Vec<Vec<u64>> = (0..shape.batch)
            .map(|_| shape.record(&mut query_rng))
            .collect();
        run_batch(shape, dep, &points, &mut proto_rng, tally, &mut phase);
    }
    phase.wall = start.elapsed() - user_time - think;
    phase
}

/// Runs one batch before the measured phase, checked but not timed, so the
/// first timed query does not pay first-touch costs (the protocol's code
/// paths and allocations) that no later query pays.
pub fn warm_up(shape: &Shape, dep: &Deployment, seed: u64, tally: &mut Tally) {
    let mut rng = rng(seed, Stream::WarmUp);
    let points: Vec<Vec<u64>> = (0..shape.batch).map(|_| shape.record(&mut rng)).collect();
    run_batch(shape, dep, &points, &mut rng, tally, &mut Phase::default());
}

/// Builds, runs and checks one batch, appending its samples to `phase`.
pub fn run_batch(
    shape: &Shape,
    dep: &Deployment,
    points: &[Vec<u64>],
    rng: &mut StdRng,
    tally: &mut Tally,
    phase: &mut Phase,
) {
    let engine = &dep.engine;
    let prepared: Vec<Result<PreparedQuery, SknnError>> = points
        .iter()
        .map(|p| {
            engine
                .query(DATASET)
                .k(shape.k)
                .point(p)
                .protocol(shape.protocol)
                .build()
        })
        .collect();
    let ok: Vec<PreparedQuery> = prepared
        .iter()
        .filter_map(|p| p.as_ref().ok().cloned())
        .collect();
    let comm_before = engine.comm_stats();
    let t = Instant::now();
    let mut outcomes = engine.run_batch(&ok, rng).into_iter();
    let wall = t.elapsed();
    let comm = match (comm_before, engine.comm_stats()) {
        (Some(b), Some(a)) => Some(a.since(&b)),
        _ => None,
    };
    phase.batches.push(BatchSample {
        wall,
        queries: ok.len(),
        comm,
    });
    let table = dep.live.table();
    for (point, built) in points.iter().zip(prepared) {
        let outcome = built.and_then(|_| outcomes.next().expect("one outcome per query"));
        let checked = match outcome {
            Ok(out) => {
                let verdict = shape.check(&table, point, &out.result);
                phase.queries.push(QuerySample {
                    latency: wall,
                    profile: out.profile,
                });
                if verdict.is_ok() {
                    phase.last_answer = Some((point.clone(), out.result));
                }
                verdict
            }
            Err(e) => Err(format!("query error: {e}")),
        };
        if tally.record(checked) {
            phase.correct_queries += 1;
        }
    }
}

/// One write round: the owner encrypts two fresh records, C1 appends them
/// (write-ahead), the two oldest live records are tombstoned, and the
/// store is flushed. Live n stays constant.
pub fn write_round(
    shape: &Shape,
    dep: &mut Deployment,
    rng: &mut StdRng,
) -> Result<WriteSample, String> {
    const PER_ROUND: usize = 2;
    let round = Instant::now();
    let rows: Vec<Vec<u64>> = (0..PER_ROUND).map(|_| shape.record(rng)).collect();
    let t = Instant::now();
    let records = rows
        .iter()
        .map(|r| dep.engine.owner().encrypt_record(r, rng))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("encrypt_record: {e}"))?;
    let encrypt = t.elapsed();
    let bytes_before = dep.store.as_deref().map_or(0, dir_bytes);
    let t = Instant::now();
    let stable = dep
        .engine
        .append_records(DATASET, records)
        .map_err(|e| format!("append_records: {e}"))?;
    let append = t.elapsed();
    let bytes_after = dep.store.as_deref().map_or(0, dir_bytes);
    dep.live.append(&stable, &rows);
    let t = Instant::now();
    for _ in 0..PER_ROUND {
        let oldest = dep.live.oldest().ok_or("live table empty")?;
        dep.engine
            .tombstone_record(DATASET, oldest)
            .map_err(|e| format!("tombstone_record({oldest}): {e}"))?;
        dep.live.pop_oldest();
    }
    let tombstone = t.elapsed() / PER_ROUND as u32;
    let t = Instant::now();
    dep.engine.flush().map_err(|e| format!("flush: {e}"))?;
    let flush = t.elapsed();
    Ok(WriteSample {
        round: round.elapsed(),
        encrypt_per_record: encrypt / PER_ROUND as u32,
        append_per_record: append / PER_ROUND as u32,
        tombstone,
        flush,
        bytes_per_append: bytes_after.saturating_sub(bytes_before) as f64 / PER_ROUND as f64,
    })
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// What the end of a churn run measured.
#[derive(Debug, Default)]
pub struct Epilogue {
    pub compact: Duration,
    pub bytes_per_live_pre: f64,
    pub bytes_per_live_post: f64,
    pub reopen: Duration,
}

/// The end of a churn run: compact, shut the engine down, recover it with
/// `open_dir`, and ask the phase's last answered point again — the answer
/// must match the one given before the shutdown, and the oracle.
pub fn churn_epilogue(
    shape: &Shape,
    mut dep: Deployment,
    phase: &Phase,
    seed: u64,
    tally: &mut Tally,
) -> Epilogue {
    let mut out = Epilogue::default();
    let root = dep.store.clone().expect("churn deployments are durable");
    let live = dep.live.len() as f64;
    out.bytes_per_live_pre = dir_bytes(&root) as f64 / live;
    let t = Instant::now();
    let compacted = dep.engine.compact_dataset(DATASET);
    out.compact = t.elapsed();
    tally.record(
        compacted
            .map(|_| ())
            .map_err(|e| format!("compact_dataset: {e}")),
    );
    out.bytes_per_live_post = dir_bytes(&root) as f64 / live;

    let owner = dep.engine.owner().clone();
    let config = dep.config.clone();
    let live = dep.live.clone();
    drop(dep);
    let t = Instant::now();
    let reopened = SknnEngine::open_dir(owner, config.clone(), &root);
    out.reopen = t.elapsed();
    let engine = match reopened {
        Ok(engine) => engine,
        Err(e) => {
            tally.record(Err(format!("open_dir: {e}")));
            return out;
        }
    };
    tally.record(Ok(()));
    let Some((point, before)) = &phase.last_answer else {
        return out;
    };
    let dep = Deployment {
        engine,
        live,
        config,
        store: Some(root),
    };
    let mut after = Phase::default();
    let mut rng = rng(seed, Stream::Probe);
    run_batch(
        shape,
        &dep,
        std::slice::from_ref(point),
        &mut rng,
        tally,
        &mut after,
    );
    if let Some((_, answer)) = &after.last_answer {
        tally.record(if answer == before {
            Ok(())
        } else {
            Err(format!(
                "answer after reopen {answer:?} != before shutdown {before:?}"
            ))
        });
    }
    out
}

//! The traced run: layer probes, an untraced engine phase for the stage
//! profiles and counters, and the public stage operators driven over the
//! deployment's C1 with a [`TimedHolder`] around the engine's key holder —
//! which splits each stage into C1 self time and time inside C2 (crypto,
//! plus wire when C2 is remote).

use crate::layers::{self, UnitCosts};
use crate::report::{self, Metrics, STAGES};
use crate::stats::median_or_zero;
use crate::trace::{self_time, Span, TimedHolder, Tracer};
use crate::workload::{self, Deployment, Phase, Shape, Stream, Tally, DATASET, THREADS};
use rand::rngs::StdRng;
use sknn_core::exec::{FinalizeStage, SbdStage, SsedStage, TopKStage};
use sknn_core::{KeyHolder, ParallelismConfig, Protocol, QueryProfile, Stage};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offline units prewarmed for the probes' C2 (enough that no probe falls
/// back to an online exponentiation, as in the engine's steady state).
const PROBE_POOL: usize = 320;

/// The profile stage each stage name stands for.
fn stage_of(name: &str) -> Stage {
    match name {
        "ssed" => Stage::DistanceComputation,
        "sbd" => Stage::BitDecomposition,
        "shard_topk" => Stage::ShardCandidates,
        "smin_n" => Stage::SecureMinimum,
        "selection" => Stage::RecordSelection,
        "freeze" => Stage::DistanceFreezing,
        _ => Stage::Finalization,
    }
}

/// Samples the process's thread count every 2 ms until `finish`.
struct ThreadSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicUsize>,
    handle: Option<std::thread::JoinHandle<()>>,
}

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

impl ThreadSampler {
    fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicUsize::new(0));
        let (s, p) = (Arc::clone(&stop), Arc::clone(&peak));
        let handle = std::thread::spawn(move || {
            while !s.load(Ordering::Relaxed) {
                p.fetch_max(thread_count(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        ThreadSampler {
            stop,
            peak,
            handle: Some(handle),
        }
    }

    /// Stops sampling; returns the peak, not counting the sampler itself.
    fn finish(mut self) -> usize {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        self.peak.load(Ordering::Relaxed).saturating_sub(1)
    }
}

/// Per-stage totals of one driven query: wall time and time inside C2.
#[derive(Clone, Copy, Debug, Default)]
struct StageSplit {
    wall: f64,
    c2: f64,
}

/// What one driven query returns: the wall time of its driven stages and,
/// for SkNN_b, the recovered answer.
type Driven = (f64, Option<Vec<Vec<u64>>>);

/// Drives one query through the public stage operators over the
/// deployment's C1. With `timed`, C2 is that wrapper and every stage runs
/// inside a span on its tracer, so the C2 calls become the stage's
/// children; without it, C2 is `plain` and nothing is recorded.
fn drive(
    shape: &Shape,
    dep: &Deployment,
    plain: &dyn KeyHolder,
    timed: Option<&TimedHolder<'_>>,
    query_id: u64,
    point: &[u64],
    rng: &mut StdRng,
) -> Result<Driven, String> {
    let c2: &dyn KeyHolder = match timed {
        Some(t) => t,
        None => plain,
    };
    let tracer = timed.map(TimedHolder::tracer);
    let dataset = dep.engine.dataset(DATASET).ok_or("dataset missing")?;
    let c1 = dataset.cloud();
    let db = c1.database();
    let query = dep
        .engine
        .query_user()
        .encrypt_query(point, rng)
        .map_err(|e| e.to_string())?;
    let root = tracer.map_or(0, |t| t.open("query", 0, query_id));
    let stage = |name: &str| -> u64 {
        match tracer {
            Some(t) => {
                let id = t.open(&format!("stage.{name}"), root, query_id);
                if let Some(h) = timed {
                    h.enter(id, query_id);
                }
                id
            }
            None => 0,
        }
    };
    let end = |id: u64| {
        if let Some(t) = tracer {
            t.close(id);
        }
    };
    let par = ParallelismConfig { threads: THREADS };
    let start = Instant::now();
    let mut answer = None;
    match shape.protocol {
        Protocol::Basic => {
            let views: Vec<_> = db
                .shard_views()
                .into_iter()
                .filter(|v| v.num_live() > 0)
                .collect();
            let positions_to_physical = |live: &[usize], pos: Vec<usize>| -> Vec<usize> {
                pos.into_iter().map(|i| live[i]).collect()
            };
            let winners: Vec<usize> = if views.len() <= 1 {
                let live = db.live_indices();
                let id = stage("ssed");
                let d = SsedStage::for_basic(c1, par).run(c2, &query, live.clone(), rng);
                end(id);
                let d = d.map_err(|e| e.to_string())?;
                let id = stage("selection");
                let top = TopKStage::new(shape.k).run(c1, c2, &d);
                end(id);
                positions_to_physical(&live, top.map_err(|e| e.to_string())?)
            } else {
                // Scatter: per-shard SSED and top-k (sequentially, over
                // the one traced session); gather: top-k over the
                // candidates, ordered by physical index like the engine's.
                let inner = ParallelismConfig {
                    threads: THREADS.div_ceil(views.len()).max(1),
                };
                let mut candidates = Vec::new();
                for view in &views {
                    let live = view.live_indices();
                    let id = stage("ssed");
                    let d = SsedStage::for_basic(c1, inner).run(c2, &query, live.clone(), rng);
                    end(id);
                    let d = d.map_err(|e| e.to_string())?;
                    let id = stage("shard_topk");
                    let top = TopKStage::new(shape.k).run(c1, c2, &d);
                    end(id);
                    candidates.extend(positions_to_physical(
                        &live,
                        top.map_err(|e| e.to_string())?,
                    ));
                }
                candidates.sort_unstable();
                // The gather's distance ciphertexts are recomputed here
                // (the operators keep them private); only the selection
                // itself is attributed to a stage.
                let id = tracer.map_or(0, |t| t.open("recompute", root, query_id));
                if let Some(h) = timed {
                    h.enter(id, query_id);
                }
                let d = SsedStage::for_basic(c1, par).run(c2, &query, candidates.clone(), rng);
                end(id);
                let d = d.map_err(|e| e.to_string())?;
                let id = stage("selection");
                let top = TopKStage::new(shape.k).run(c1, c2, &d);
                end(id);
                positions_to_physical(&candidates, top.map_err(|e| e.to_string())?)
            };
            let chosen: Vec<_> = winners.iter().map(|&i| db.record(i).clone()).collect();
            let id = stage("finalize");
            let masked = FinalizeStage.run(c1, c2, &chosen, rng);
            end(id);
            answer = Some(dep.engine.query_user().recover_records(&masked));
        }
        Protocol::Secure => {
            let live = db.live_indices();
            let id = stage("ssed");
            let d = SsedStage::for_secure(c1, shape.l, par).run(c2, &query, live.clone(), rng);
            end(id);
            let d = d.map_err(|e| e.to_string())?;
            let id = stage("sbd");
            let bits = SbdStage::new(c1, shape.l, par).run(c2, &d, rng);
            end(id);
            bits.map_err(|e| e.to_string())?;
            // SMIN_n, selection and freeze have no public operator; the
            // reveal costs the same for any k records, so it runs over the
            // first k live ones.
            let chosen: Vec<_> = live
                .iter()
                .take(shape.k)
                .map(|&i| db.record(i).clone())
                .collect();
            let id = stage("finalize");
            FinalizeStage.run(c1, c2, &chosen, rng);
            end(id);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    end(root);
    Ok((wall, answer))
}

/// Per-stage wall and C2 time of every query in `spans`, averaged over
/// `queries`.
fn splits(spans: &[Span], queries: usize) -> BTreeMap<String, StageSplit> {
    let mut out: BTreeMap<String, StageSplit> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name.starts_with("stage.")) {
        let e = out.entry(s.name["stage.".len()..].to_string()).or_default();
        let wall = s.end - s.start;
        e.wall += wall as f64 * 1e-9 / queries as f64;
        e.c2 += (wall - self_time(s, spans)) as f64 * 1e-9 / queries as f64;
    }
    out
}

/// The traced run. See the module docs.
pub fn run(shape: &Shape, seed: u64, budget: Duration, scratch: &Path) -> crate::RunResult {
    let (mut dep, _) = crate::timed_setups(shape, seed, scratch, 1)?;
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let tracer = Tracer::default();
    let mut probe_rng = workload::rng(seed, Stream::Probe);

    // ── Layer probes ───────────────────────────────────────────────────
    let t = Instant::now();
    let owner = dep.engine.owner().clone();
    let (pk, sk) = (owner.public_key(), owner.private_key());
    layers::bigint(&mut m, pk, &mut probe_rng);
    let units = layers::paillier(&mut m, pk, sk, &mut probe_rng);
    let holder = layers::key_holder(sk, seed, PROBE_POOL);
    layers::c2(&mut m, &holder, shape, &mut probe_rng);
    let shares = layers::proto(&mut m, &holder, &tracer, shape, &mut probe_rng);
    let probe_pool = holder.pool().map(|p| p.stats()).unwrap_or_default();
    drop(holder);
    println!(
        "layer probes: {:.2} s; probe C2 pool {} hits, {} fallbacks",
        t.elapsed().as_secs_f64(),
        probe_pool.hits,
        probe_pool.fallbacks
    );

    // ── Untraced engine phase: profiles, counters, threads ────────────
    let pool_before = dep.engine.pool_stats();
    let comm_before = dep.engine.comm_stats();
    let sampler = ThreadSampler::start();
    let phase = workload::measured_phase(shape, &mut dep, seed, budget / 2, 0, &mut tally);
    m.set("engine.peak_threads", sampler.finish() as f64, 1);
    let pool = dep.engine.pool_stats().since(&pool_before);
    m.set_noted(
        "paillier.pool_hit_ratio",
        pool.hits as f64 / pool.draws().max(1) as f64,
        pool.draws() as usize,
        &format!("{} hits / {} draws", pool.hits, pool.draws()),
    );
    let comm_total = match (comm_before, dep.engine.comm_stats()) {
        (Some(b), Some(a)) => Some(a.since(&b)),
        _ => None,
    };
    engine_metrics(&mut m, &phase);
    let query_p50_s = median_or_zero(
        &phase
            .queries
            .iter()
            .map(|q| q.latency.as_secs_f64())
            .collect::<Vec<_>>(),
    );

    // ── Traced stage drivers, and the same drivers untraced ───────────
    let mut trace_rng = workload::rng(seed, Stream::Probe);
    let mut query_rng = workload::rng(seed ^ 0x7ACE, Stream::Queries);
    let traced_queries = if shape.protocol == Protocol::Secure {
        2
    } else {
        1
    };
    let points: Vec<Vec<u64>> = (0..traced_queries)
        .map(|_| shape.record(&mut query_rng))
        .collect();
    let mut plain_wall = Vec::new();
    let mut traced_wall = Vec::new();
    let spans_before = tracer.spans().len();
    let engine_holder = dep.engine.key_holder();
    let timed = TimedHolder::new(engine_holder, &tracer);
    for (i, point) in points.iter().enumerate() {
        let (w, _) = drive(shape, &dep, engine_holder, None, 0, point, &mut trace_rng)?;
        plain_wall.push(w);
        let (w, answer) = drive(
            shape,
            &dep,
            engine_holder,
            Some(&timed),
            i as u64 + 1,
            point,
            &mut trace_rng,
        )?;
        traced_wall.push(w);
        if let Some(got) = answer {
            tally.record(shape.check(&dep.live.table(), point, &got));
        }
    }
    let spans = tracer.spans();
    let split = splits(&spans[spans_before..], traced_queries);
    let overhead = median_or_zero(&traced_wall) / median_or_zero(&plain_wall) - 1.0;
    m.set_noted(
        "trace.overhead_share",
        overhead,
        traced_queries,
        "traced vs untraced stage drivers",
    );

    stage_metrics(&mut m, &phase, &split, &shares, units);

    // ── Wire (remote C2 only) ─────────────────────────────────────────
    if let Some(total) = comm_total {
        wire_metrics(&mut m, &dep, &phase, total, query_p50_s, &mut probe_rng);
    }

    // ── Store (churn only) ────────────────────────────────────────────
    if shape.churn {
        store_metrics(&mut m, &phase);
        let epilogue = workload::churn_epilogue(shape, dep, &phase, seed, &mut tally);
        m.set("store.compact_s", epilogue.compact.as_secs_f64(), 1);
        m.set("store.reopen_s", epilogue.reopen.as_secs_f64(), 1);
        m.set(
            "store.bytes_per_live_record.pre_compact",
            epilogue.bytes_per_live_pre,
            1,
        );
        m.set(
            "store.bytes_per_live_record.post_compact",
            epilogue.bytes_per_live_post,
            1,
        );
    } else {
        drop(dep);
    }

    let path = PathBuf::from(crate::SCRATCH).join(format!("spans-{}-seed{seed}.jsonl", shape.name));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => println!("spans: not written ({e})"),
    }
    print_accounting(&m, shape);
    Ok((m, tally, report::per_layer()))
}

/// `engine.*` from the untraced phase.
fn engine_metrics(m: &mut Metrics, phase: &Phase) {
    let unstaged: Vec<f64> = phase
        .queries
        .iter()
        .map(|q| (q.latency.as_secs_f64() - q.profile.total().as_secs_f64()) * 1e3)
        .collect();
    m.set_noted(
        "engine.unstaged_ms",
        median_or_zero(&unstaged),
        unstaged.len(),
        "latency minus profile total",
    );
    // Σ per-query profile totals over each batch's wall time.
    let mut overlaps = Vec::new();
    let mut q = phase.queries.iter();
    for b in &phase.batches {
        let total: f64 = q
            .by_ref()
            .take(b.queries)
            .map(|s| s.profile.total().as_secs_f64())
            .sum();
        overlaps.push(total / b.wall.as_secs_f64());
    }
    m.set(
        "engine.batch_overlap",
        median_or_zero(&overlaps),
        overlaps.len(),
    );
}

/// `stage.*`: wall time and op counts from the engine's profiles; the
/// C1/C2 split from the traced drivers where a public operator exists,
/// otherwise from the primitive replay's C2 share; and the accounting
/// residual against op counts × unit costs.
fn stage_metrics(
    m: &mut Metrics,
    phase: &Phase,
    split: &BTreeMap<String, StageSplit>,
    shares: &BTreeMap<&'static str, f64>,
    units: UnitCosts,
) {
    let profiles: Vec<&QueryProfile> = phase.queries.iter().map(|q| &q.profile).collect();
    let n = profiles.len();
    let per_query = |f: &dyn Fn(&QueryProfile) -> f64| -> f64 {
        median_or_zero(&profiles.iter().map(|p| f(p)).collect::<Vec<_>>())
    };
    for name in STAGES {
        let stage = stage_of(name);
        let wall = per_query(&|p| p.stage(stage).as_secs_f64());
        let decryptions = per_query(&|p| p.ops(stage).c2_decryptions as f64);
        let on_wire = per_query(&|p| p.ops(stage).ciphertexts_on_wire() as f64);
        let from_c2 = per_query(&|p| p.ops(stage).ciphertexts_from_c2 as f64);
        let (c2, c1_self, source) = match split.get(name) {
            Some(s) => (s.c2, s.wall - s.c2, "traced"),
            None => match shares.get(name) {
                Some(share) if wall > 0.0 => (wall * share, wall * (1.0 - share), "replay"),
                _ => (0.0, wall, "none"),
            },
        };
        let predicted = decryptions * units.decrypt_s + from_c2 * units.encrypt_pooled_s;
        let residual = if c2 > 0.0 { c2 - predicted } else { 0.0 };
        let note = format!("C1/C2 split: {source}");
        m.set(&format!("stage.{name}.s"), wall, n);
        m.set_noted(&format!("stage.{name}.c2_s"), c2, n, &note);
        m.set_noted(&format!("stage.{name}.c1_self_s"), c1_self, n, &note);
        m.set_noted(
            &format!("stage.{name}.c2_residual_s"),
            residual,
            n,
            &format!("predicted C2 {predicted:.4} s"),
        );
        m.set(&format!("stage.{name}.c2_decryptions"), decryptions, n);
        m.set(&format!("stage.{name}.cts_on_wire"), on_wire, n);
        if let Some(s) = split.get(name) {
            m.set_noted(&format!("traced.{name}.wall_s"), s.wall, 1, "");
        }
    }
    let share = per_query(&|p| p.fraction(Stage::SecureMinimum));
    m.set("stage.smin_n.share", share, n);
}

/// `wire.*`: exact traffic per query (each batch is a serial window), the
/// cost of one round trip, and the resilience counters.
fn wire_metrics(
    m: &mut Metrics,
    dep: &Deployment,
    phase: &Phase,
    total: sknn_protocols::stats::CommSnapshot,
    query_p50_s: f64,
    rng: &mut StdRng,
) {
    let per_query = |f: &dyn Fn(&sknn_protocols::stats::CommSnapshot) -> u64| -> Vec<f64> {
        phase
            .batches
            .iter()
            .filter_map(|b| {
                b.comm
                    .as_ref()
                    .map(|c| f(c) as f64 / b.queries.max(1) as f64)
            })
            .collect()
    };
    let requests = per_query(&|c| c.requests);
    let bytes = per_query(&|c| c.total_bytes());
    m.set(
        "wire.requests_per_query",
        median_or_zero(&requests),
        requests.len(),
    );
    m.set("wire.bytes_per_query", median_or_zero(&bytes), bytes.len());
    m.set("wire.retries", total.retries as f64, 1);
    m.set("wire.reconnects", total.reconnects as f64, 1);
    m.set("wire.failovers", total.failovers as f64, 1);

    // One ciphertext through the session minus the same call on a local
    // holder, timed in adjacent pairs so both halves of a pair see the same
    // host speed; the median pair difference is the round trip.
    const RTT_PAIRS: usize = 41;
    let owner = dep.engine.owner();
    let ct = vec![owner.public_key().encrypt_u64(7, rng)];
    let local = layers::key_holder(owner.private_key(), 1, 0);
    let time = |h: &dyn KeyHolder| -> f64 {
        let t = Instant::now();
        std::hint::black_box(h.decrypt_masked_batch(&ct));
        t.elapsed().as_secs_f64()
    };
    let diffs: Vec<f64> = (0..RTT_PAIRS)
        .map(|_| time(dep.engine.key_holder()) - time(&local))
        .collect();
    let rtt = median_or_zero(&diffs).max(0.0);
    m.set_noted(
        "wire.rtt_us",
        rtt * 1e6,
        RTT_PAIRS,
        "remote minus local 1-ciphertext decrypt, paired",
    );
    let requests_p50 = median_or_zero(&requests);
    let share = if query_p50_s > 0.0 {
        rtt * requests_p50 / query_p50_s
    } else {
        0.0
    };
    m.set_noted(
        "wire.overhead_share",
        share,
        1,
        "rtt × requests per query / query p50",
    );
}

/// `owner.*` and `store.*` from the write rounds.
fn store_metrics(m: &mut Metrics, phase: &Phase) {
    let col = |f: &dyn Fn(&workload::WriteSample) -> f64| -> Vec<f64> {
        phase.writes.iter().map(f).collect()
    };
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let w = phase.writes.len();
    m.set(
        "owner.encrypt_record_ms",
        median_or_zero(&col(&|s| ms(s.encrypt_per_record))),
        w,
    );
    m.set(
        "store.append_ms",
        median_or_zero(&col(&|s| ms(s.append_per_record))),
        w,
    );
    m.set(
        "store.tombstone_ms",
        median_or_zero(&col(&|s| ms(s.tombstone))),
        w,
    );
    m.set("store.flush_ms", median_or_zero(&col(&|s| ms(s.flush))), w);
    m.set(
        "store.write_round_ms",
        median_or_zero(&col(&|s| ms(s.round))),
        w,
    );
    m.set(
        "store.bytes_written_per_append",
        median_or_zero(&col(&|s| s.bytes_per_append)),
        w,
    );
}

/// The per-stage accounting table and the Section 5.2 comparison.
fn print_accounting(m: &Metrics, shape: &Shape) {
    let g = |n: &str| m.get(n).unwrap_or(0.0);
    println!();
    println!("per-stage accounting (seconds per query; C2 predicted = decryptions × decrypt + C2 replies × pooled encrypt):");
    println!(
        "  {:<11} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10} {:>9} {:>9}",
        "stage", "wall", "traced", "c1_self", "c2", "c1+c2", "decrypts", "pred_c2", "residual"
    );
    for name in STAGES {
        let wall = g(&format!("stage.{name}.s"));
        if wall == 0.0 {
            continue;
        }
        let c2 = g(&format!("stage.{name}.c2_s"));
        let c1 = g(&format!("stage.{name}.c1_self_s"));
        let residual = g(&format!("stage.{name}.c2_residual_s"));
        let traced = m
            .get(&format!("traced.{name}.wall_s"))
            .map_or("replay".to_string(), |t| format!("{t:.4}"));
        println!(
            "  {:<11} {:>9.4} {:>9} {:>9.4} {:>9.4} {:>9.4} {:>10.0} {:>9.4} {:>9.4}",
            name,
            wall,
            traced,
            c1,
            c2,
            c1 + c2,
            g(&format!("stage.{name}.c2_decryptions")),
            c2 - residual,
            residual
        );
    }
    println!(
        "  residual = measured C2 − predicted: wire, queueing and scheduling{}",
        if shape.transport == sknn_core::TransportKind::InProcess {
            " (no wire in-process)"
        } else {
            ""
        }
    );
    println!(
        "tracing overhead: {:+.2}% (traced vs untraced stage drivers)",
        g("trace.overhead_share") * 100.0
    );
    if shape.protocol == Protocol::Secure {
        println!(
            "Section 5.2: SMIN_n share of SkNN_m = {:.1}% (paper: 70–75%)",
            g("stage.smin_n.share") * 100.0
        );
    }
}

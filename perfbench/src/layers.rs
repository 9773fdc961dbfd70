//! Layer probes for the traced run: each times calls into one layer's
//! public functions at the workload's key, from outside the layer.
//!
//! * `bigint`: the reusable [`Montgomery`] context at the `N²` width.
//! * `paillier`: encryption (cold and pooled), CRT decryption and the
//!   homomorphic operations the protocols lean on.
//! * C2 (`protocols`): a [`LocalKeyHolder`] called directly through the
//!   [`KeyHolder`] trait.
//! * C1 primitives (`protocols`): SSED, SBD, SMIN, SMIN_n, SBOR and SM run
//!   against a [`TimedHolder`]-wrapped [`LocalKeyHolder`], which also
//!   yields the share of each primitive spent inside C2.

use crate::report::Metrics;
use crate::trace::{self_time, Span, TimedHolder, Tracer};
use crate::workload::{Shape, ATTRIBUTES};
use rand::rngs::StdRng;
use rand::Rng;
use sknn_bigint::{random_below, random_bits, BigUint, Montgomery};
use sknn_core::{Ciphertext, PoolConfig, PooledEncryptor, PrivateKey, PublicKey, RandomnessPool};
use sknn_protocols::{
    secure_bit_decompose, secure_bit_or, secure_min, secure_min_n, secure_multiply_batch,
    secure_squared_distance, KeyHolder, LocalKeyHolder,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Median wall time of one call of `f`, in seconds, over `samples` timed
/// samples of `batch` calls each (after one untimed warm-up call).
fn per_call<T>(samples: usize, batch: usize, mut f: impl FnMut() -> T) -> (f64, usize) {
    std::hint::black_box(f());
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            t.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    (crate::stats::median_or_zero(&times), samples * batch)
}

/// The unit costs the stage accounting model multiplies op counts by.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnitCosts {
    /// One CRT decryption, seconds.
    pub decrypt_s: f64,
    /// One pooled (online) encryption, seconds.
    pub encrypt_pooled_s: f64,
}

/// `bigint.*`: the Montgomery product and a full-width exponentiation
/// (`r^N mod N²`, the cold-encryption kernel).
pub fn bigint(m: &mut Metrics, pk: &PublicKey, rng: &mut StdRng) {
    let mont = Montgomery::new(pk.n_squared().clone());
    let a = random_below(rng, pk.n_squared());
    let b = random_below(rng, pk.n_squared());
    let (t, n) = per_call(9, 200, || mont.mul(&a, &b));
    m.set_noted(
        "bigint.mont_mul_ns",
        t * 1e9,
        n,
        "Montgomery::mul incl. domain conversion",
    );
    let (t, n) = per_call(7, 1, || mont.pow(&a, pk.n()));
    m.set("bigint.pow_full_us", t * 1e6, n);
}

/// `paillier.*` unit costs. Returns the costs the accounting model uses.
pub fn paillier(m: &mut Metrics, pk: &PublicKey, sk: &PrivateKey, rng: &mut StdRng) -> UnitCosts {
    let msg = BigUint::from_u64(rng.gen_range(0..1u64 << 32));
    let (t, n) = per_call(9, 1, || pk.encrypt(&msg, &mut *rng));
    m.set("paillier.encrypt_us", t * 1e6, n);

    const POOLED: usize = 31;
    let pool = RandomnessPool::new(
        pk.clone(),
        PoolConfig {
            capacity: POOLED,
            background_refill: false,
            seed: Some(rng.gen()),
            ..PoolConfig::default()
        },
    );
    pool.prewarm(POOLED);
    let enc = PooledEncryptor::new(Arc::clone(&pool));
    let (pooled, n) = per_call(POOLED - 1, 1, || enc.encrypt(&msg));
    m.set("paillier.encrypt_pooled_us", pooled * 1e6, n);

    let c = pk.encrypt(&msg, &mut *rng);
    let d = pk.encrypt(&msg, &mut *rng);
    let (decrypt, n) = per_call(15, 1, || sk.decrypt(&c));
    m.set("paillier.decrypt_us", decrypt * 1e6, n);
    let (t, n) = per_call(9, 1, || pk.negate(&c));
    m.set("paillier.negate_us", t * 1e6, n);
    let full = random_below(rng, pk.n());
    let (t, n) = per_call(9, 1, || pk.mul_plain(&c, &full));
    m.set("paillier.mul_plain_full_us", t * 1e6, n);
    let short = random_bits(rng, 100);
    let (t, n) = per_call(15, 1, || pk.mul_plain(&c, &short));
    m.set_noted(
        "paillier.mul_plain_short_us",
        t * 1e6,
        n,
        "100-bit exponent",
    );
    let (t, n) = per_call(9, 100, || pk.add(&c, &d));
    m.set("paillier.add_us", t * 1e6, n);
    UnitCosts {
        decrypt_s: decrypt,
        encrypt_pooled_s: pooled,
    }
}

/// A C2 key holder like the engine's: seeded, with an offline randomness
/// pool prewarmed with `prewarm` units. The pool does not refill in the
/// background, so no refill thread competes with the probes for a core.
pub fn key_holder(sk: &PrivateKey, seed: u64, prewarm: usize) -> LocalKeyHolder {
    let pool = RandomnessPool::new(
        sk.public_key().clone(),
        PoolConfig {
            capacity: prewarm,
            background_refill: false,
            seed: Some(seed ^ 0x9002),
            ..PoolConfig::default()
        },
    );
    pool.prewarm(prewarm);
    LocalKeyHolder::new(sk.clone(), seed)
        .with_pool(pool)
        .expect("the pool is built from the holder's own key")
}

fn encrypt_bits(pk: &PublicKey, value: u64, l: usize, rng: &mut StdRng) -> Vec<Ciphertext> {
    (0..l)
        .rev()
        .map(|i| pk.encrypt_u64((value >> i) & 1, rng))
        .collect()
}

/// `c2.*`: C2's request handlers, called directly.
pub fn c2(m: &mut Metrics, holder: &LocalKeyHolder, shape: &Shape, rng: &mut StdRng) {
    let pk = holder.public_key().clone();
    let enc = |v: u64, rng: &mut StdRng| pk.encrypt_u64(v, rng);
    let samples = 5;

    let pairs: Vec<(Ciphertext, Ciphertext)> = (0..4)
        .map(|_| {
            (
                enc(rng.gen_range(0..1000), rng),
                enc(rng.gen_range(0..1000), rng),
            )
        })
        .collect();
    let (t, n) = per_call(samples, 1, || holder.sm_mask_multiply_batch(&pairs));
    m.set("c2.sm_us", t * 1e6 / pairs.len() as f64, n * pairs.len());

    let masked: Vec<Ciphertext> = (0..8).map(|_| enc(rng.gen_range(0..1000), rng)).collect();
    let (t, n) = per_call(samples, 1, || holder.lsb_of_masked_batch(&masked));
    m.set("c2.lsb_us", t * 1e6 / masked.len() as f64, n * masked.len());

    let gamma: Vec<Ciphertext> = (0..shape.l)
        .map(|_| enc(rng.gen_range(0..1000), rng))
        .collect();
    let lvec: Vec<Ciphertext> = (0..shape.l).map(|i| enc(i as u64 + 2, rng)).collect();
    let (t, n) = per_call(samples, 1, || holder.smin_round(&gamma, &lvec));
    m.set_noted("c2.smin_round_us", t * 1e6, n, &format!("l = {}", shape.l));

    let mut beta: Vec<Ciphertext> = (0..5).map(|_| enc(rng.gen_range(1..1000), rng)).collect();
    beta.insert(0, enc(0, rng));
    let (t, n) = per_call(samples, 1, || holder.min_selection(&beta));
    m.set_noted("c2.min_selection_us", t * 1e6, n, "6 candidates");

    let distances: Vec<Ciphertext> = (0..shape.n)
        .map(|_| enc(rng.gen_range(0..4000), rng))
        .collect();
    let (t, n) = per_call(samples, 1, || holder.top_k_indices(&distances, shape.k));
    m.set_noted(
        "c2.top_k_us",
        t * 1e6,
        n,
        &format!("n = {}, k = {}", shape.n, shape.k),
    );

    let results: Vec<Ciphertext> = (0..shape.k * ATTRIBUTES)
        .map(|_| enc(rng.gen(), rng))
        .collect();
    let (t, n) = per_call(samples, 1, || holder.decrypt_masked_batch(&results));
    m.set(
        "c2.decrypt_masked_us",
        t * 1e6 / results.len() as f64,
        n * results.len(),
    );
}

/// Runs `f` `reps` times, each inside a span named `name` on `holder`'s
/// tracer, and returns the median seconds per run and the share of the
/// total spent in C2 calls (the spans' children).
fn replay<T>(
    holder: &TimedHolder<'_>,
    name: &str,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> (f64, f64) {
    let tracer = holder.tracer();
    for _ in 0..reps {
        tracer.span(name, 0, 0, |id| {
            holder.enter(id, 0);
            std::hint::black_box(f());
        });
    }
    let spans = tracer.spans();
    let runs: Vec<&Span> = spans.iter().filter(|s| s.name == name).collect();
    let total: u64 = runs.iter().map(|s| s.end - s.start).sum();
    let c2: u64 = runs
        .iter()
        .map(|s| s.end - s.start - self_time(s, &spans))
        .sum();
    let times: Vec<f64> = runs
        .iter()
        .map(|s| (s.end - s.start) as f64 * 1e-9)
        .collect();
    let share = if total == 0 {
        0.0
    } else {
        c2 as f64 / total as f64
    };
    (crate::stats::median_or_zero(&times), share)
}

/// `proto.*`: the C1 primitives against a local C2. Returns the share of
/// each primitive's time spent inside C2, keyed by the stage whose C1/C2
/// split it stands in for.
pub fn proto(
    m: &mut Metrics,
    holder: &LocalKeyHolder,
    tracer: &Tracer,
    shape: &Shape,
    rng: &mut StdRng,
) -> BTreeMap<&'static str, f64> {
    let pk = holder.public_key().clone();
    let timed = TimedHolder::new(holder, tracer);
    let l = shape.l;
    let max = (1u64 << l) - 2;
    let mut shares = BTreeMap::new();

    let q: Vec<Ciphertext> = (0..ATTRIBUTES)
        .map(|_| pk.encrypt_u64(rng.gen_range(0..=shape.max_value), rng))
        .collect();
    let r: Vec<Ciphertext> = (0..ATTRIBUTES)
        .map(|_| pk.encrypt_u64(rng.gen_range(0..=shape.max_value), rng))
        .collect();
    let mut prng = rng.clone();
    let (t, share) = replay(&timed, "proto.ssed", 3, || {
        secure_squared_distance(&pk, &timed, &q, &r, &mut prng)
    });
    m.set_noted(
        "proto.ssed_ms",
        t * 1e3,
        3,
        &format!("per record, m = {ATTRIBUTES}; C2 share {share:.3}"),
    );

    let z = pk.encrypt_u64(rng.gen_range(0..max), rng);
    let (t, share) = replay(&timed, "proto.sbd", 3, || {
        secure_bit_decompose(&pk, &timed, &z, l, &mut prng)
    });
    m.set_noted(
        "proto.sbd_ms",
        t * 1e3,
        3,
        &format!("per value, l = {l}; C2 share {share:.3}"),
    );

    let u = encrypt_bits(&pk, rng.gen_range(0..max), l, rng);
    let v = encrypt_bits(&pk, rng.gen_range(0..max), l, rng);
    let (t, share) = replay(&timed, "proto.smin", 3, || {
        secure_min(&pk, &timed, &u, &v, &mut prng)
    });
    m.set_noted(
        "proto.smin_ms",
        t * 1e3,
        3,
        &format!("per pair, l = {l}; C2 share {share:.3}"),
    );

    let values: Vec<Vec<Ciphertext>> = (0..6)
        .map(|_| encrypt_bits(&pk, rng.gen_range(0..max), l, rng))
        .collect();
    let (t, share) = replay(&timed, "proto.smin_n", 1, || {
        secure_min_n(&pk, &timed, &values, &mut prng)
    });
    m.set_noted(
        "proto.smin_n_ms",
        t * 1e3,
        1,
        &format!("one tournament over 6 values; C2 share {share:.3}"),
    );
    shares.insert("smin_n", share);

    let b1 = pk.encrypt_u64(1, rng);
    let b2 = pk.encrypt_u64(0, rng);
    let (t, share) = replay(&timed, "proto.sbor", 5, || {
        secure_bit_or(&pk, &timed, &b1, &b2, &mut prng)
    });
    m.set_noted(
        "proto.sbor_us",
        t * 1e6,
        5,
        &format!("per bit; C2 share {share:.3}"),
    );
    shares.insert("freeze", share);

    // Record selection is SM-bound (indicator × attribute products), so a
    // batch of SMs stands in for its C1/C2 split.
    let pairs: Vec<(Ciphertext, Ciphertext)> = (0..ATTRIBUTES)
        .map(|_| {
            (
                pk.encrypt_u64(rng.gen_range(0..2), rng),
                pk.encrypt_u64(rng.gen_range(0..=shape.max_value), rng),
            )
        })
        .collect();
    let (_, share) = replay(&timed, "proto.sm_batch", 3, || {
        secure_multiply_batch(&pk, &timed, &pairs, &mut prng)
    });
    shares.insert("selection", share);
    shares
}

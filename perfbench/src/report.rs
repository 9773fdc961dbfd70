//! Metric names, the human-readable report, and the one-line JSON result
//! the benchmark ends with.

use std::collections::BTreeMap;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["secure-serial", "churn-tcp"];

/// End-to-end metrics, reported by every untraced run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("user_encrypt_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The seven stages of the executor, by the name the per-layer metrics use.
pub const STAGES: [&str; 7] = [
    "ssed",
    "sbd",
    "shard_topk",
    "smin_n",
    "selection",
    "freeze",
    "finalize",
];

/// Per-stage metrics, appended to each stage name as `stage.<s>.<suffix>`.
const STAGE_METRICS: [(&str, &str); 6] = [
    ("s", "s"),
    ("c2_s", "s"),
    ("c1_self_s", "s"),
    ("c2_residual_s", "s"),
    ("c2_decryptions", "count"),
    ("cts_on_wire", "count"),
];

const LAYER_HEAD: [(&str, &str); 23] = [
    ("bigint.mont_mul_ns", "ns"),
    ("bigint.pow_full_us", "us"),
    ("paillier.encrypt_us", "us"),
    ("paillier.encrypt_pooled_us", "us"),
    ("paillier.decrypt_us", "us"),
    ("paillier.negate_us", "us"),
    ("paillier.mul_plain_full_us", "us"),
    ("paillier.mul_plain_short_us", "us"),
    ("paillier.add_us", "us"),
    ("paillier.pool_hit_ratio", "ratio"),
    ("c2.sm_us", "us"),
    ("c2.lsb_us", "us"),
    ("c2.smin_round_us", "us"),
    ("c2.min_selection_us", "us"),
    ("c2.top_k_us", "us"),
    ("c2.decrypt_masked_us", "us"),
    ("proto.ssed_ms", "ms"),
    ("proto.sbd_ms", "ms"),
    ("proto.smin_ms", "ms"),
    ("proto.smin_n_ms", "ms"),
    ("proto.sbor_us", "us"),
    ("stage.smin_n.share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

const LAYER_TAIL: [(&str, &str); 20] = [
    ("wire.requests_per_query", "count"),
    ("wire.bytes_per_query", "bytes"),
    ("wire.rtt_us", "us"),
    ("wire.overhead_share", "ratio"),
    ("wire.retries", "count"),
    ("wire.reconnects", "count"),
    ("wire.failovers", "count"),
    ("engine.unstaged_ms", "ms"),
    ("engine.batch_overlap", "ratio"),
    ("engine.peak_threads", "count"),
    ("owner.encrypt_record_ms", "ms"),
    ("store.append_ms", "ms"),
    ("store.tombstone_ms", "ms"),
    ("store.flush_ms", "ms"),
    ("store.compact_s", "s"),
    ("store.write_round_ms", "ms"),
    ("store.reopen_s", "s"),
    ("store.bytes_per_live_record.pre_compact", "bytes"),
    ("store.bytes_per_live_record.post_compact", "bytes"),
    ("store.bytes_written_per_append", "bytes"),
];

/// Every per-layer metric a traced run (`--trace 1`) reports, in order.
/// Layers a workload does not reach report 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_HEAD
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for stage in STAGES {
        for (suffix, unit) in STAGE_METRICS {
            out.push((format!("stage.{stage}.{suffix}"), unit));
        }
    }
    out.extend(LAYER_TAIL.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// How many samples it summarizes (1 for a single measurement).
    pub samples: usize,
    /// A short remark printed beside it (may be empty).
    pub note: String,
}

/// The metrics of one run, by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, Metric>,
}

impl Metrics {
    /// Records `name`.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.set_noted(name, value, samples, "");
    }

    /// Records `name` with a remark.
    pub fn set_noted(&mut self, name: &str, value: f64, samples: usize, note: &str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.values.insert(
            name.to_string(),
            Metric {
                value,
                samples,
                note: note.to_string(),
            },
        );
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|m| m.value)
    }

    /// Prints `names` one per line, with unit and sample count.
    pub fn print(&self, names: &[(String, &str)]) {
        for (name, unit) in names {
            match self.values.get(name) {
                Some(m) => println!(
                    "  {name:<44} {:>14.4} {unit:<6} n={}{}{}",
                    m.value,
                    m.samples,
                    if m.note.is_empty() { "" } else { "  " },
                    m.note
                ),
                None => println!("  {name:<44} {:>14} {unit:<6} (not measured)", "-"),
            }
        }
    }

    /// The closing JSON line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding `names` (missing ones as 0).
    pub fn json_line(
        &self,
        names: &[(String, &str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let body: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name).unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Names of the end-to-end metrics as owned strings.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Value;

    /// A minimal JSON reader, enough to check `BENCHMARK.json` and the
    /// result line.
    mod json {
        #[derive(Debug, PartialEq)]
        pub enum Value {
            Null,
            Bool(bool),
            Num(f64),
            Str(String),
            Arr(Vec<Value>),
            Obj(Vec<(String, Value)>),
        }

        impl Value {
            pub fn get(&self, key: &str) -> &Value {
                match self {
                    Value::Obj(kv) => &kv.iter().find(|(k, _)| k == key).expect(key).1,
                    _ => panic!("not an object"),
                }
            }
            pub fn keys(&self) -> Vec<&str> {
                match self {
                    Value::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
                    _ => panic!("not an object"),
                }
            }
            pub fn arr(&self) -> &[Value] {
                match self {
                    Value::Arr(a) => a,
                    _ => panic!("not an array"),
                }
            }
            pub fn str(&self) -> &str {
                match self {
                    Value::Str(s) => s,
                    _ => panic!("not a string"),
                }
            }
            pub fn num(&self) -> f64 {
                match self {
                    Value::Num(n) => *n,
                    _ => panic!("not a number"),
                }
            }
        }

        pub fn parse(s: &str) -> Value {
            let b = s.as_bytes();
            let mut i = 0;
            let v = value(b, &mut i);
            ws(b, &mut i);
            assert_eq!(i, b.len(), "trailing input");
            v
        }

        fn ws(b: &[u8], i: &mut usize) {
            while *i < b.len() && b[*i].is_ascii_whitespace() {
                *i += 1;
            }
        }

        fn value(b: &[u8], i: &mut usize) -> Value {
            ws(b, i);
            match b[*i] {
                b'{' => {
                    *i += 1;
                    let mut kv = Vec::new();
                    loop {
                        ws(b, i);
                        if b[*i] == b'}' {
                            *i += 1;
                            return Value::Obj(kv);
                        }
                        let Value::Str(k) = value(b, i) else {
                            panic!("key")
                        };
                        ws(b, i);
                        assert_eq!(b[*i], b':');
                        *i += 1;
                        kv.push((k, value(b, i)));
                        ws(b, i);
                        if b[*i] == b',' {
                            *i += 1;
                        }
                    }
                }
                b'[' => {
                    *i += 1;
                    let mut a = Vec::new();
                    loop {
                        ws(b, i);
                        if b[*i] == b']' {
                            *i += 1;
                            return Value::Arr(a);
                        }
                        a.push(value(b, i));
                        ws(b, i);
                        if b[*i] == b',' {
                            *i += 1;
                        }
                    }
                }
                b'"' => {
                    *i += 1;
                    let start = *i;
                    while b[*i] != b'"' {
                        assert_ne!(b[*i], b'\\', "escapes are not used");
                        *i += 1;
                    }
                    *i += 1;
                    Value::Str(String::from_utf8(b[start..*i - 1].to_vec()).unwrap())
                }
                b't' => {
                    *i += 4;
                    Value::Bool(true)
                }
                b'f' => {
                    *i += 5;
                    Value::Bool(false)
                }
                b'n' => {
                    *i += 4;
                    Value::Null
                }
                _ => {
                    let start = *i;
                    while *i < b.len() && b"+-.eE0123456789".contains(&b[*i]) {
                        *i += 1;
                    }
                    Value::Num(std::str::from_utf8(&b[start..*i]).unwrap().parse().unwrap())
                }
            }
        }
    }

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
    }

    fn names(list: &Value) -> Vec<(String, String)> {
        list.arr()
            .iter()
            .map(|m| {
                (
                    m.get("name").str().to_string(),
                    m.get("unit").str().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_metrics_the_binary_prints() {
        let b = benchmark_json();
        assert_eq!(
            b.keys(),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads: Vec<&str> = b
            .get("workloads")
            .arr()
            .iter()
            .map(|w| w.get("name").str())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let own = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(names(b.get("end_to_end")), own(end_to_end()));
        assert_eq!(names(b.get("per_layer")), own(per_layer()));
        for m in b.get("end_to_end").arr() {
            assert_eq!(m.keys(), ["name", "unit", "better", "bound"]);
            let bound = m.get("bound").num();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        for m in b.get("per_layer").arr() {
            assert_eq!(m.keys(), ["name", "unit", "better"]);
        }
        let setup = &b.get("end_to_end").arr()[0];
        assert_eq!(setup.get("name").str(), "setup_s");
        assert_eq!(setup.get("better").str(), "lower");
        let max_bound = b
            .get("end_to_end")
            .arr()
            .iter()
            .map(|m| m.get("bound").num())
            .fold(0.0, f64::max);
        assert_eq!(
            setup.get("bound").num(),
            max_bound,
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut all: Vec<String> = end_to_end().into_iter().map(|(n, _)| n).collect();
        all.extend(per_layer().into_iter().map(|(n, _)| n));
        let count = all.len();
        assert!(per_layer().len() <= 128);
        all.sort();
        all.dedup();
        assert_eq!(all.len(), count, "duplicate metric name");
        for n in &all {
            assert!(
                n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.25, 3);
        m.set("query_p50_ms", f64::NAN, 1);
        let line = m.json_line(&end_to_end(), true, 12, 0);
        let v = json::parse(&line);
        assert_eq!(v.keys(), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), &Value::Bool(true));
        assert_eq!(v.get("attempted").num(), 12.0);
        let metrics = v.get("metrics");
        let keys: Vec<&str> = metrics.keys();
        let want: Vec<String> = end_to_end().into_iter().map(|(n, _)| n).collect();
        assert_eq!(keys, want.iter().map(String::as_str).collect::<Vec<_>>());
        assert_eq!(metrics.get("setup_s").get("value").num(), 1.25);
        assert_eq!(metrics.get("setup_s").get("unit").str(), "s");
        // Non-finite values never reach the JSON.
        assert_eq!(metrics.get("query_p50_ms").get("value").num(), 0.0);
    }
}

//! The named-instrument registry and its two exporters.

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// Schema tag stamped into every [`EngineSnapshot`] /
/// [`MetricsRegistry::snapshot_json`] document.
pub const SNAPSHOT_SCHEMA: &str = "msj-obs-v1";

/// The canonical instrument key: `name` alone, or
/// `name{label="value",…}` with the labels in the given order.
pub fn metric_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut key = String::with_capacity(name.len() + 16 * labels.len());
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(k);
        key.push_str("=\"");
        key.push_str(v);
        key.push('"');
    }
    key.push('}');
    key
}

struct Entry<T> {
    /// Family name (the part before `{`).
    name: String,
    labels: Vec<(String, String)>,
    inner: Arc<T>,
}

/// Named lock-free instruments, shared by handle.
///
/// `counter`/`gauge`/`histogram` register on first use and return the
/// same `Arc` for the same `(name, labels)` afterwards — callers cache
/// the handle and record through a relaxed atomic, never through the
/// registry lock. [`MetricsRegistry::describe`] attaches HELP text per
/// family; described families render in the exporters even before any
/// sample lands (so a scrape sees the whole schema at zero).
pub struct MetricsRegistry {
    enabled: bool,
    help: RwLock<BTreeMap<String, String>>,
    counters: RwLock<BTreeMap<String, Entry<Counter>>>,
    gauges: RwLock<BTreeMap<String, Entry<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Entry<Histogram>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

fn register<T: Default>(
    map: &RwLock<BTreeMap<String, Entry<T>>>,
    name: &str,
    labels: &[(&str, &str)],
) -> Arc<T> {
    let key = metric_key(name, labels);
    if let Some(entry) = map.read().expect("registry lock poisoned").get(&key) {
        return entry.inner.clone();
    }
    let mut map = map.write().expect("registry lock poisoned");
    map.entry(key)
        .or_insert_with(|| Entry {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            inner: Arc::new(T::default()),
        })
        .inner
        .clone()
}

impl MetricsRegistry {
    /// An enabled, empty registry.
    pub fn new() -> Self {
        MetricsRegistry::with_enabled(true)
    }

    /// A registry that remembers whether recording is globally enabled
    /// (callers consult [`MetricsRegistry::is_enabled`] before paying
    /// for clock reads; the instruments themselves always work).
    pub fn with_enabled(enabled: bool) -> Self {
        MetricsRegistry {
            enabled,
            help: RwLock::new(BTreeMap::new()),
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
        }
    }

    /// Whether the owning engine records into this registry.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Attaches HELP text to a metric family (rendered by the
    /// Prometheus exporter).
    pub fn describe(&self, family: &str, help: &str) {
        self.help
            .write()
            .expect("registry lock poisoned")
            .insert(family.to_string(), help.to_string());
    }

    /// The counter registered under `(name, labels)`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        register(&self.counters, name, labels)
    }

    /// The gauge registered under `(name, labels)`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        register(&self.gauges, name, labels)
    }

    /// The histogram registered under `(name, labels)`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        register(&self.histograms, name, labels)
    }

    /// A point-in-time copy of every registered instrument.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            schema: SNAPSHOT_SCHEMA.to_string(),
            counters: self
                .counters
                .read()
                .expect("registry lock poisoned")
                .iter()
                .map(|(k, e)| (k.clone(), e.inner.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .expect("registry lock poisoned")
                .iter()
                .map(|(k, e)| (k.clone(), e.inner.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .expect("registry lock poisoned")
                .iter()
                .map(|(k, e)| (k.clone(), e.inner.snapshot()))
                .collect(),
        }
    }

    /// The schema-versioned JSON export: [`MetricsRegistry::snapshot`]
    /// rendered via [`EngineSnapshot::to_json`].
    pub fn snapshot_json(&self) -> String {
        self.snapshot().to_json()
    }

    /// A Prometheus-style text rendering: `# HELP`/`# TYPE` headers per
    /// family, counters and gauges as plain samples, histograms as
    /// summaries (`{quantile="…"}` samples plus `_count`/`_sum`/`_max`).
    pub fn render_prometheus(&self) -> String {
        let help = self.help.read().expect("registry lock poisoned").clone();
        let mut out = String::new();
        let mut last_family = String::new();
        let header = |out: &mut String, family: &str, kind: &str, last: &mut String| {
            if family != last {
                if let Some(text) = help.get(family) {
                    out.push_str(&format!("# HELP {family} {text}\n"));
                }
                out.push_str(&format!("# TYPE {family} {kind}\n"));
                last.clear();
                last.push_str(family);
            }
        };
        for (key, entry) in self.counters.read().expect("registry lock poisoned").iter() {
            header(&mut out, &entry.name, "counter", &mut last_family);
            out.push_str(&format!("{key} {}\n", entry.inner.get()));
        }
        for (key, entry) in self.gauges.read().expect("registry lock poisoned").iter() {
            header(&mut out, &entry.name, "gauge", &mut last_family);
            out.push_str(&format!("{key} {}\n", entry.inner.get()));
        }
        for entry in self
            .histograms
            .read()
            .expect("registry lock poisoned")
            .values()
        {
            header(&mut out, &entry.name, "summary", &mut last_family);
            let snap = entry.inner.snapshot();
            let labels: Vec<(&str, &str)> = entry
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            for (q, v) in [
                ("0.5", snap.p50()),
                ("0.9", snap.p90()),
                ("0.99", snap.p99()),
            ] {
                let mut with_q = labels.clone();
                with_q.push(("quantile", q));
                out.push_str(&format!("{} {v}\n", metric_key(&entry.name, &with_q)));
            }
            let suffixed = |suffix: &str| metric_key(&format!("{}{suffix}", entry.name), &labels);
            out.push_str(&format!("{} {}\n", suffixed("_count"), snap.count));
            out.push_str(&format!("{} {}\n", suffixed("_sum"), snap.sum));
            out.push_str(&format!("{} {}\n", suffixed("_max"), snap.max));
        }
        // Described families with no samples yet still render, at zero —
        // a scrape sees the full schema from the first request on.
        for family in help.keys() {
            if !out.contains(family.as_str()) {
                out.push_str(&format!("# TYPE {family} counter\n{family} 0\n"));
            }
        }
        out
    }
}

/// A point-in-time copy of a whole [`MetricsRegistry`], keyed by the
/// canonical [`metric_key`] strings.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    /// The export schema ([`SNAPSHOT_SCHEMA`]).
    pub schema: String,
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl EngineSnapshot {
    /// A counter's value (0 when the key never registered).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// A gauge's level (0 when the key never registered).
    pub fn gauge(&self, key: &str) -> f64 {
        self.gauges.get(key).copied().unwrap_or(0.0)
    }

    /// A histogram's captured distribution, if the key registered.
    pub fn histogram(&self, key: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(key)
    }

    /// The schema-versioned JSON document (hand-rendered — the
    /// workspace vendors no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"schema\":\"{}\"", escape(&self.schema)));
        out.push_str(",\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", escape(k)));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", escape(k), json_f64(*v)));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                concat!(
                    "\"{}\":{{\"count\":{},\"sum\":{},\"max\":{},",
                    "\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}"
                ),
                escape(k),
                h.count,
                h.sum,
                h.max,
                json_f64(h.mean()),
                h.p50(),
                h.p90(),
                h.p99(),
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Finite JSON number rendering (JSON has no NaN/Inf).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_render_labels_in_order() {
        assert_eq!(metric_key("m", &[]), "m");
        assert_eq!(
            metric_key("m", &[("kind", "join"), ("w", "0")]),
            "m{kind=\"join\",w=\"0\"}"
        );
    }

    #[test]
    fn same_key_returns_the_same_instrument() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("hits", &[("kind", "x")]);
        let b = reg.counter("hits", &[("kind", "x")]);
        a.add(3);
        assert_eq!(b.get(), 3);
        assert!(Arc::ptr_eq(&a, &b));
        let other = reg.counter("hits", &[("kind", "y")]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    fn snapshot_json_is_schema_versioned_and_balanced() {
        let reg = MetricsRegistry::new();
        reg.counter("msj_admission_shed_total", &[]).add(2);
        reg.gauge("msj_admission_error", &[]).set(0.25);
        reg.histogram("msj_request_latency_nanos", &[("kind", "join")])
            .record(1500);
        let json = reg.snapshot_json();
        assert!(json.contains("\"schema\":\"msj-obs-v1\""));
        assert!(json.contains("\"msj_admission_shed_total\":2"));
        assert!(json.contains("\"msj_admission_error\":0.25"));
        assert!(json.contains("msj_request_latency_nanos{kind=\\\"join\\\"}"));
        assert!(json.contains("\"count\":1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn prometheus_rendering_has_families_and_quantiles() {
        let reg = MetricsRegistry::new();
        reg.describe("msj_admission_shed_total", "Joins refused by admission");
        reg.describe("msj_request_latency_nanos", "Request latency");
        reg.counter("msj_step_nanos_total", &[("step", "step2")])
            .add(10);
        let h = reg.histogram("msj_request_latency_nanos", &[("kind", "join")]);
        h.record(1000);
        h.record(3000);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE msj_step_nanos_total counter"));
        assert!(text.contains("msj_step_nanos_total{step=\"step2\"} 10"));
        assert!(text.contains("# HELP msj_request_latency_nanos Request latency"));
        assert!(text.contains("# TYPE msj_request_latency_nanos summary"));
        assert!(text.contains("msj_request_latency_nanos{kind=\"join\",quantile=\"0.5\"}"));
        assert!(text.contains("msj_request_latency_nanos_count{kind=\"join\"} 2"));
        assert!(text.contains("msj_request_latency_nanos_sum{kind=\"join\"} 4000"));
        assert!(text.contains("msj_request_latency_nanos_max{kind=\"join\"} 3000"));
        // A described family with no samples still renders (at zero).
        assert!(text.contains("msj_admission_shed_total 0"));
    }

    #[test]
    fn registry_survives_8_hammering_threads() {
        let reg = Arc::new(MetricsRegistry::new());
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let reg = Arc::clone(&reg);
                scope.spawn(move || {
                    let kind = if t % 2 == 0 { "even" } else { "odd" };
                    for i in 0..5_000u64 {
                        // Mix cached-handle and re-registration paths.
                        reg.counter("hammer_total", &[("kind", kind)]).inc();
                        reg.histogram("hammer_lat", &[]).record(i);
                        reg.gauge("hammer_level", &[]).set(i as f64);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("hammer_total{kind=\"even\"}")
                + snap.counter("hammer_total{kind=\"odd\"}"),
            40_000
        );
        let h = snap.histogram("hammer_lat").unwrap();
        assert_eq!(h.count, 40_000);
        assert_eq!(h.max, 4_999);
    }
}

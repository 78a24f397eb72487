//! Spans and counts recorded by the benchmark around its calls into each
//! layer. Kept in memory while the run measures, written to
//! `trace-<workload>.json` when it ends; the per-layer metrics are
//! derived from that file, not from the in-memory state.

use crate::json::Json;
use crate::stats::median;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Repetition of the enclosing loop this span belongs to.
    pub rep: u32,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Count {
    pub name: String,
    pub value: f64,
    pub rep: u32,
}

#[derive(Default)]
struct Recorded {
    spans: Vec<Span>,
    counts: Vec<Count>,
}

pub struct Tracer {
    origin: Instant,
    recorded: Mutex<Recorded>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            recorded: Mutex::new(Recorded::default()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Recorded> {
        self.recorded
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Records a finished span and returns its id (its index in the file).
    pub fn record(
        &self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        rep: u32,
    ) -> SpanId {
        let mut recorded = self.lock();
        recorded.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            rep,
        });
        (recorded.spans.len() - 1) as SpanId
    }

    /// Times `work` as one span. `work` gets the span's id, so what it
    /// records can name it as parent.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        rep: u32,
        work: impl FnOnce(SpanId) -> T,
    ) -> T {
        let start = self.now_ns();
        let id = self.record(name, start, start, parent, rep);
        let value = work(id);
        let end = self.now_ns();
        self.lock().spans[id as usize].end_ns = end;
        value
    }

    pub fn count(&self, name: &str, value: f64, rep: u32) {
        self.lock().counts.push(Count {
            name: name.to_string(),
            value,
            rep,
        });
    }

    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let recorded = self.lock();
        let spans = recorded
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::str(&s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("rep", Json::Num(s.rep as f64)),
                ])
            })
            .collect();
        let counts = recorded
            .counts
            .iter()
            .map(|c| {
                Json::obj([
                    ("name", Json::str(&c.name)),
                    ("value", Json::Num(c.value)),
                    ("rep", Json::Num(c.rep as f64)),
                ])
            })
            .collect();
        let file = Json::obj([
            ("schema", Json::str("msj-benchmark-trace-v1")),
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("spans", Json::Arr(spans)),
            ("counts", Json::Arr(counts)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, file.render())
    }
}

/// A trace file read back.
pub struct TraceFile {
    pub spans: Vec<Span>,
    pub counts: Vec<Count>,
}

impl TraceFile {
    pub fn load(path: &Path) -> Result<TraceFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = Json::parse(&text)?;
        let num = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("trace entry without {key}"))
        };
        let name = |item: &Json| {
            item.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or("trace entry without name")
        };
        let spans = json
            .get("spans")
            .ok_or("trace file without spans")?
            .as_arr()
            .iter()
            .map(|item| {
                Ok(Span {
                    name: name(item)?,
                    start_ns: num(item, "start_ns")? as u64,
                    end_ns: num(item, "end_ns")? as u64,
                    parent: item
                        .get("parent")
                        .and_then(Json::as_f64)
                        .map(|p| p as SpanId),
                    rep: num(item, "rep")? as u32,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let counts = json
            .get("counts")
            .ok_or("trace file without counts")?
            .as_arr()
            .iter()
            .map(|item| {
                Ok(Count {
                    name: name(item)?,
                    value: num(item, "value")?,
                    rep: num(item, "rep")? as u32,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(TraceFile { spans, counts })
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    pub fn median_ms(&self, name: &str) -> f64 {
        median(&self.durations_ms(name))
    }

    pub fn sum_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Self time of every span called `name`: its duration minus the
    /// part of that interval its direct children cover.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut covered: HashMap<SpanId, u64> = HashMap::new();
        for child in &self.spans {
            if let Some(parent) = child.parent {
                let p = &self.spans[parent as usize];
                let start = child.start_ns.max(p.start_ns);
                let end = child.end_ns.min(p.end_ns);
                *covered.entry(parent).or_default() += end.saturating_sub(start);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(id, s)| {
                let own = s.end_ns - s.start_ns;
                let children = covered.get(&(id as SpanId)).copied().unwrap_or(0);
                own.saturating_sub(children) as f64 / 1e6
            })
            .collect()
    }

    /// The last value recorded under `name`; NaN when never recorded.
    pub fn count(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .rev()
            .find(|c| c.name == name)
            .map_or(f64::NAN, |c| c.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_survives_the_file() {
        let tracer = Tracer::new();
        let parent = tracer.record("join", 0, 10_000_000, None, 0);
        tracer.record("step1", 0, 2_000_000, Some(parent), 0);
        tracer.record("step3", 2_000_000, 9_000_000, Some(parent), 0);
        tracer.count("candidates", 42.0, 0);
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/trace-unit-test.json");
        tracer.write(&path, "unit", 7).unwrap();
        let file = TraceFile::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(file.self_ms("join"), vec![1.0]);
        assert_eq!(file.median_ms("step3"), 7.0);
        assert_eq!(file.count("candidates"), 42.0);
        assert_eq!(file.spans[1].parent, Some(parent));
    }
}

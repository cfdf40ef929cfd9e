//! Spans recorded by the benchmark around calls into each layer, and the
//! per-layer ledger computed from them.
//!
//! A traced run keeps every span in memory, writes them to a span file
//! when the run ends, and computes the ledger by reading that file back —
//! so the numbers in the report are reproducible from the file alone.
//!
//! Spans come in two shapes. Some nest in time (the `PUT` round-trip
//! wraps nothing, a fine-tune round wraps its own work). Others are
//! *replays*: the benchmark re-issues a routed request's per-shard
//! sub-request directly to a twin replica, feeds it to a twin in-process
//! engine, and so on, and links each replay to the span it decomposes
//! through `parent`. One rule covers both: a span's self time is its
//! duration minus the length of the union of its children's intervals.
//! For nested children that is the usual definition; for sequential
//! replays the union is the sum of their durations; for children that ran
//! in parallel it is the wall time they covered together.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id (`>= 1`).
    pub id: u64,
    /// Id of the span this one decomposes, `0` for a root.
    pub parent: u64,
    /// Request id shared by every span of one end-to-end operation.
    pub req: u64,
    /// Layer name, e.g. `serve.proto.parse`.
    pub name: String,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span sink shared by the generator threads.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh id, for a request or for a span whose children are
    /// recorded before it ends.
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under an id from [`Tracer::new_id`].
    pub fn record_id(
        &self,
        id: u64,
        name: &str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            req,
            name: name.to_string(),
            start: ns(start),
            end: ns(end),
        };
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Records a finished span.
    pub fn record(&self, name: &str, parent: u64, req: u64, start: Instant, end: Instant) {
        self.record_id(self.new_id(), name, parent, req, start, end);
    }

    /// Runs `f`, records it as a span, and returns its result.
    pub fn time<T>(&self, name: &str, parent: u64, req: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, req, start, Instant::now());
        out
    }

    /// Takes every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }
}

/// Writes spans as tab-separated `id parent req name start end` lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "# id\tparent\treq\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.req, s.name, s.start, s.end
        )?;
    }
    w.flush()
}

/// Reads a span file written by [`write_spans`].
pub fn read_spans(path: &Path) -> std::io::Result<Vec<Span>> {
    let bad = |line: &str| std::io::Error::other(format!("malformed span line {line:?}"));
    let mut out = Vec::new();
    for line in BufReader::new(std::fs::File::open(path)?).lines() {
        let line = line?;
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        let [id, parent, req, name, start, end] = f.as_slice() else {
            return Err(bad(&line));
        };
        let num = |s: &str| s.parse::<u64>().map_err(|_| bad(&line));
        out.push(Span {
            id: num(id)?,
            parent: num(parent)?,
            req: num(req)?,
            name: name.to_string(),
            start: num(start)?,
            end: num(end)?,
        });
    }
    Ok(out)
}

/// Length of the union of `[start, end)` intervals.
pub fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span, in ns: duration minus the union of its
/// children's intervals (may be negative when replayed children took
/// longer than the work they decompose).
pub fn self_times(spans: &[Span]) -> HashMap<u64, i64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.remove(&s.id).map_or(0, union_len);
            (s.id, s.dur() as i64 - covered as i64)
        })
        .collect()
}

/// How a layer contributes to the ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Part {
    /// The span's self time.
    SelfTime,
    /// The span's whole duration (for a layer whose children are its own
    /// internals, reported separately).
    Total,
}

/// Per-request sums of one layer across every request that has a root
/// span named `root`: `values[layer][i]` is the layer's contribution (ns)
/// to the `i`-th such request. Layers absent from a request contribute 0.
pub fn per_request(spans: &[Span], root: &str, layers: &[(&str, Part)]) -> Vec<Vec<f64>> {
    let selfs = self_times(spans);
    let roots: Vec<u64> = {
        let mut r: Vec<u64> = spans
            .iter()
            .filter(|s| s.parent == 0 && s.name == root)
            .map(|s| s.req)
            .collect();
        r.sort_unstable();
        r.dedup();
        r
    };
    let index: HashMap<u64, usize> = roots.iter().enumerate().map(|(i, &r)| (r, i)).collect();
    let mut out = vec![vec![0.0; roots.len()]; layers.len()];
    for s in spans {
        let Some(&i) = index.get(&s.req) else {
            continue;
        };
        for (l, &(name, part)) in layers.iter().enumerate() {
            if s.name == name {
                out[l][i] += match part {
                    Part::SelfTime => selfs[&s.id] as f64,
                    Part::Total => s.dur() as f64,
                };
            }
        }
    }
    out
}

/// Durations (ns) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, req: u64, name: &str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            req,
            name: name.into(),
            start,
            end,
        }
    }

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_len(vec![]), 0);
        assert_eq!(union_len(vec![(0, 10)]), 10);
        assert_eq!(union_len(vec![(5, 15), (0, 10)]), 15);
        assert_eq!(union_len(vec![(0, 10), (20, 25), (10, 12)]), 17);
        assert_eq!(union_len(vec![(0, 10), (2, 3)]), 10);
    }

    #[test]
    fn self_time_subtracts_nested_sequential_and_parallel_children() {
        let spans = vec![
            // A routed request of 100 ns ...
            span(1, 0, 7, "rec", 0, 100),
            // ... decomposed by two sequential replays (30 + 20 ns).
            span(2, 1, 7, "serve.server", 200, 230),
            span(3, 1, 7, "serve.server", 240, 260),
            // The first replay wraps two children that ran in parallel:
            // 200..215 and 205..220 cover 20 ns together.
            span(4, 2, 7, "serve.tables.topk", 200, 215),
            span(5, 2, 7, "serve.tables.topk", 205, 220),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 50, "router self = 100 - (30 + 20)");
        assert_eq!(st[&2], 10, "30 - union(15, 15 overlapping) = 30 - 20");
        assert_eq!(st[&3], 20);
        assert_eq!(st[&4], 15);
        // A replay longer than its parent shows as negative self time
        // rather than being hidden.
        let st = self_times(&[span(1, 0, 1, "a", 0, 10), span(2, 1, 1, "b", 20, 35)]);
        assert_eq!(st[&1], -5);
    }

    #[test]
    fn ledger_sums_layers_per_request() {
        let spans = vec![
            span(1, 0, 1, "rec", 0, 100),
            span(2, 1, 1, "serve.server", 100, 160),
            span(3, 2, 1, "serve.engine.batch", 160, 200),
            span(4, 0, 2, "rec", 300, 350),
            span(5, 4, 2, "serve.server", 350, 370),
            span(6, 4, 2, "serve.server", 370, 380),
            // Not a `rec` request: ignored by the ledger.
            span(7, 0, 3, "put", 0, 1000),
        ];
        let layers = [
            ("rec", Part::SelfTime),
            ("serve.server", Part::SelfTime),
            ("serve.engine.batch", Part::Total),
        ];
        let v = per_request(&spans, "rec", &layers);
        assert_eq!(v[0], vec![40.0, 20.0]);
        assert_eq!(v[1], vec![20.0, 30.0]);
        assert_eq!(v[2], vec![40.0, 0.0]);
        // Each request's layers add back up to its root duration.
        for (i, total) in [100.0, 50.0].into_iter().enumerate() {
            assert_eq!(v.iter().map(|l| l[i]).sum::<f64>(), total);
        }
    }

    #[test]
    fn span_file_round_trips() {
        let dir = std::env::temp_dir().join(format!("e2ebench-spans-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.tsv");
        let t = Tracer::new();
        let req = t.new_id();
        let root = t.new_id();
        let x = t.time("serve.proto.parse", root, req, || 41 + 1);
        let now = Instant::now();
        t.record_id(root, "rec", 0, req, now, now);
        let spans = t.drain();
        assert_eq!(x, 42);
        assert_eq!(spans.len(), 2);
        write_spans(&path, &spans).unwrap();
        assert_eq!(read_spans(&path).unwrap(), spans);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

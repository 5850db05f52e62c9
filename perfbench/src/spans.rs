//! The benchmark's own layer spans.
//!
//! Every call the benchmark makes into a layer of the library is wrapped
//! in a span: name, start, end, the span that caused it, and the run id
//! shared by all spans of one workload run. Spans stay in memory; the
//! traced run writes them once, at exit, as JSON lines. A layer's self
//! time is its span's duration minus the part its child spans cover.

use crate::stats::{json_num, json_str};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct SpanRec {
    name: &'static str,
    rep: usize,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

/// In-memory span recorder for one workload run.
pub struct Spans {
    run_id: String,
    origin: Instant,
    recs: Vec<SpanRec>,
    open: Vec<usize>,
    rep: usize,
}

impl Spans {
    /// A recorder whose spans all carry `run_id`.
    pub fn new(run_id: String) -> Self {
        Self {
            run_id,
            origin: Instant::now(),
            recs: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Tags the spans opened from now on with repetition `rep`.
    pub fn set_rep(&mut self, rep: usize) {
        self.rep = rep;
    }

    /// Opens a span under the innermost open one; close it with [`Spans::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.recs.len();
        self.recs.push(SpanRec {
            name,
            rep: self.rep,
            parent: self.open.last().copied(),
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: f64::NAN,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its duration.
    pub fn exit(&mut self, id: usize) -> f64 {
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost-first");
        let rec = &mut self.recs[id];
        rec.end_s = self.origin.elapsed().as_secs_f64();
        rec.end_s - rec.start_s
    }

    /// Runs `f` inside a span named `name`; returns its value and duration.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let value = f();
        (value, self.exit(id))
    }

    /// Self time summed per span name over repetition `rep`: each span's
    /// duration minus its children's.
    pub fn self_times(&self, rep: usize) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0f64; self.recs.len()];
        for r in &self.recs {
            if let Some(p) = r.parent {
                child[p] += r.end_s - r.start_s;
            }
        }
        let mut out = BTreeMap::new();
        for (i, r) in self.recs.iter().enumerate() {
            if r.rep == rep {
                *out.entry(r.name).or_insert(0.0) += (r.end_s - r.start_s) - child[i];
            }
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, r) in self.recs.iter().enumerate() {
            let parent = r.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"run_id\":{},\"rep\":{},\"id\":{i},\"parent\":{parent},\"name\":{},\"start_s\":{},\"end_s\":{}}}",
                json_str(&self.run_id),
                r.rep,
                json_str(r.name),
                json_num(r.start_s),
                json_num(r.end_s),
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new("t".into());
        let root = s.enter("rep");
        let (_, inner) = s.time("work", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let total = s.exit(root);
        let st = s.self_times(0);
        assert!((st["work"] - inner).abs() < 1e-12);
        assert!((st["rep"] - (total - inner)).abs() < 1e-9);
        assert!(st["rep"] >= 0.0);
    }
}

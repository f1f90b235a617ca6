//! Spans recorded by the benchmark's own files around the calls into
//! each layer. They stay in memory and are written as JSON lines when
//! the traced run ends; the untraced runs never construct a log.

use crate::json::Value;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, in the same log.
    pub parent: Option<u32>,
    /// The op (request id, ladder sample index or cycle) the span
    /// belongs to; spans of one op share it.
    pub op: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct SpanLog {
    base: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(base: Instant) -> SpanLog {
        SpanLog {
            base,
            spans: Vec::new(),
        }
    }

    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        op: u64,
    ) -> u32 {
        let ns = |t: Instant| t.saturating_duration_since(self.base).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    /// Times `f` under a span and returns its index with the result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (u32, R) {
        let start = Instant::now();
        let out = f();
        (self.push(name, start, Instant::now(), parent, op), out)
    }

    /// Appends `other`, re-basing its parent links.
    pub fn absorb(&mut self, other: SpanLog) {
        let offset = self.spans.len() as u32;
        let shift = other.base.saturating_duration_since(self.base).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            parent: s.parent.map(|p| p + offset),
            ..s
        }));
    }

    /// A span's duration minus its children's: the layer's self time.
    /// Ladder children are separate executions of the same op one layer
    /// down, so this is a difference of durations, not of intervals.
    pub fn self_ns(&self, index: u32) -> i64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::ns)
            .sum();
        self.spans[index as usize].ns() as i64 - children as i64
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Value::obj([
                ("id", Value::Num(id as f64)),
                ("name", Value::str(s.name)),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
                ),
                ("op", Value::Num(s.op as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let base = Instant::now();
        let at = |ms| base + Duration::from_millis(ms);
        let mut log = SpanLog::new(base);
        let rtt = log.push("serve.rtt", at(0), at(10), None, 7);
        let engine = log.push("engine.run_batch", at(20), at(26), Some(rtt), 7);
        log.push("core.solve", at(30), at(34), Some(engine), 7);
        log.push("serve.codec", at(40), at(41), Some(rtt), 7);
        assert_eq!(log.self_ns(rtt), 3_000_000);
        assert_eq!(log.self_ns(engine), 2_000_000);
        assert_eq!(log.durations("core.solve"), vec![4_000_000.0]);

        let mut other = SpanLog::new(at(100));
        let root = other.push("client.op", at(100), at(101), None, 1);
        other.push("client.send", at(100), at(100), Some(root), 1);
        log.absorb(other);
        assert_eq!(log.spans[5].parent, Some(4));
        assert_eq!(log.spans[4].start_ns, 100_000_000);
    }
}

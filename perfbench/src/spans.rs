//! In-memory spans recorded by the benchmark around its calls into the
//! program: name, start, end and parent, written out when a traced run
//! ends. A layer's self time is its span minus its child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    thread: u32,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
}

/// One thread's span recorder. A disabled recorder records nothing and
/// costs one branch per call.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    thread: u32,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    limit: usize,
    dropped: u64,
}

/// Per-name totals: spans, summed duration, summed self time.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Spans {
    pub fn disabled() -> Self {
        Self::new(Instant::now(), 0, false, 0)
    }

    /// An enabled recorder keeping at most `limit` spans; spans past the
    /// limit are counted as dropped.
    pub fn enabled(origin: Instant, thread: u32, limit: usize) -> Self {
        Self::new(origin, thread, true, limit)
    }

    fn new(origin: Instant, thread: u32, enabled: bool, limit: usize) -> Self {
        Self { origin, thread, enabled, spans: Vec::new(), open: Vec::new(), limit, dropped: 0 }
    }

    /// A recorder for another thread with this one's clock origin.
    pub fn for_thread(&self, thread: u32) -> Self {
        Self::new(self.origin, thread, self.enabled, self.limit)
    }

    /// Opens a span; the innermost open span is its parent.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        if self.spans.len() >= self.limit {
            // Keep nesting consistent: a dropped span still occupies the
            // open stack so its `end` pops the right entry.
            self.dropped += 1;
            self.open.push(NO_PARENT);
            return;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span { name, thread: self.thread, start_ns, end_ns: start_ns, parent });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("end() matches a begin()");
        if idx != NO_PARENT {
            self.spans[idx as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.begin(name);
        let out = f(self);
        self.end();
        out
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len() as u32;
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// The spans and their per-name totals as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 * self.spans.len() + 1024);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"dropped\":{},",
            self.dropped
        );
        out.push_str("\"totals\":{");
        for (i, (name, t)) in self.totals().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            let _ =
                write!(out, "[\"{}\",{},{},{},{}]", s.name, s.thread, s.start_ns, s.end_ns, parent);
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::enabled(Instant::now(), 0, 16);
        s.scope("op", |s| {
            s.scope("child", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let t = s.totals();
        let op = t["op"];
        let child = t["child"];
        assert_eq!(op.count, 1);
        assert!(child.total_ns >= 2_000_000);
        assert_eq!(op.self_ns, op.total_ns - child.total_ns);
        assert_eq!(child.self_ns, child.total_ns);
    }

    #[test]
    fn limit_drops_spans_but_keeps_nesting() {
        let mut s = Spans::enabled(Instant::now(), 0, 1);
        s.scope("a", |s| s.scope("b", |_| ()));
        assert_eq!(s.len(), 1);
        assert_eq!(s.dropped(), 1);
        let mut off = Spans::disabled();
        off.scope("a", |_| ());
        assert_eq!(off.len(), 0);
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Spans::enabled(origin, 0, 16);
        a.scope("x", |_| ());
        let mut b = a.for_thread(1);
        b.scope("y", |s| s.scope("z", |_| ()));
        a.absorb(b);
        assert_eq!(a.len(), 3);
        assert!(a.to_json("w", 1).contains("[\"z\",1,"));
        assert!(a.to_json("w", 1).contains(",1]"), "z's parent is y at index 1");
    }
}

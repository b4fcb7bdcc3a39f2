//! Spans recorded by the benchmark around its calls into each layer, kept
//! in memory and written out when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// One timed call: `req` groups the spans of one request, `parent` indexes
/// the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Which requests record spans.
#[derive(Debug, Clone, Copy)]
enum Mode {
    Off,
    On,
    /// Alternating blocks of this many requests, starting with spans off.
    Alternate(u64),
}

pub struct Spans {
    origin: Instant,
    mode: Mode,
    spans: Vec<Span>,
}

impl Spans {
    pub fn off() -> Self {
        Self::with_mode(Mode::Off)
    }

    pub fn alternating(block: u64) -> Self {
        Self::with_mode(Mode::Alternate(block.max(1)))
    }

    fn with_mode(mode: Mode) -> Self {
        Spans {
            origin: Instant::now(),
            mode,
            spans: Vec::new(),
        }
    }

    /// Records every span from now on.
    pub fn turn_on(&mut self) {
        self.mode = Mode::On;
    }

    /// Whether request number `seq` records its spans.
    pub fn on_for(&self, seq: u64) -> bool {
        match self.mode {
            Mode::Off => false,
            Mode::On => true,
            Mode::Alternate(block) => (seq / block) % 2 == 1,
        }
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            req,
            name,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span and returns its result with the span's duration
    /// in milliseconds.
    pub fn time<T>(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.record(req, name, parent, t0, t1);
        (out, (t1 - t0).as_secs_f64() * 1e3)
    }

    /// Sets the end of span `id`, recorded open before its children.
    pub fn close(&mut self, id: usize, end: Instant) {
        self.spans[id].end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(Json::Null, Json::int);
            let line = Json::obj([
                ("id", Json::int(i)),
                ("req", Json::int(s.req)),
                ("name", Json::str(s.name)),
                ("parent", parent),
                ("start_ns", Json::int(s.start_ns)),
                ("end_ns", Json::int(s.end_ns)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alternating_mode_starts_off() {
        let spans = Spans::alternating(2);
        let on: Vec<bool> = (0..6).map(|s| spans.on_for(s)).collect();
        assert_eq!(on, [false, false, true, true, false, false]);
    }
}

//! Coarse spans (name, start, end, parent) recorded by the benchmark around
//! its calls into the program: setup steps, supervision chunks,
//! checkpoints and PDES runs. They stay in memory until the invocation
//! ends and are then written out as JSON.

use std::time::Instant;

/// One closed or open span; times are seconds since the recorder's origin.
#[derive(Clone, Debug)]
pub struct Span {
    /// What ran.
    pub name: &'static str,
    /// Start, seconds since the origin.
    pub start: f64,
    /// End, seconds since the origin (equal to `start` while open).
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// An in-memory span recorder with a stack of open spans.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        let t = self.now();
        self.spans.push(Span {
            name,
            start: t,
            end: t,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in seconds.
    pub fn end(&mut self) -> f64 {
        let i = self.open.pop().expect("end() without an open span");
        let t = self.now();
        self.spans[i].end = t;
        t - self.spans[i].start
    }

    /// Number of open spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes open spans until `depth` remain (after a panic unwound
    /// through them).
    pub fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.end();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// The spans as a one-line JSON array of `{name, start, end, parent}`.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{}}}",
                    s.name, s.start, s.end, parent
                )
            })
            .collect();
        format!("[{}]", rows.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close_after_an_unwind() {
        let mut s = Spans::default();
        s.begin("outer");
        s.time("inner", || ());
        s.begin("interrupted");
        s.close_to(0);
        assert_eq!(s.depth(), 0);
        let json = s.to_json();
        assert!(json.starts_with("[{\"name\":\"outer\""), "{json}");
        assert_eq!(json.matches("\"parent\":0").count(), 2, "{json}");
    }
}

//! The benchmark's span recorder.
//!
//! A span is one timed call the benchmark made into a layer: its name,
//! start and end (nanoseconds since the run's epoch), the span that
//! caused it, the request it belongs to, and one numeric argument
//! (a batch size, a live-app count). Spans are kept in memory while the
//! run measures and written out when it ends. A disabled recorder keeps
//! nothing, so an untraced run pays only the branch.
//!
//! The summariser groups spans by name and derives each name's
//! duration and *self time*: the span's duration minus the part of its
//! interval that its child spans cover (overlapping children are
//! counted once, and children are clipped to the parent's interval).

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

use crate::stats;

/// Identifier of a recorded span (index + 1; 0 is "no span").
pub type SpanId = u32;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Static span name, e.g. `"exec.service"`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end: u64,
    /// The causing span (0 = root).
    pub parent: SpanId,
    /// Request identifier shared by every span of one request (0 = none).
    pub req: u64,
    /// One numeric argument (batch size, live apps, …; 0 when unused).
    pub arg: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: if on {
                Vec::with_capacity(1 << 16)
            } else {
                Vec::new()
            },
        }
    }

    /// Whether spans are being kept.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the epoch for `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span from two instants; returns its id (0 when off).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        arg: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return 0;
        }
        let (start, end) = (self.ns(start), self.ns(end));
        self.push(Span {
            name,
            start,
            end,
            parent,
            req,
            arg,
        })
    }

    /// Records a span given in epoch nanoseconds; returns its id.
    pub fn push(&mut self, span: Span) -> SpanId {
        if !self.on {
            return 0;
        }
        self.spans.push(span);
        self.spans.len() as SpanId
    }

    /// Mutable access to a recorded span (e.g. to close it).
    pub fn span_mut(&mut self, id: SpanId) -> Option<&mut Span> {
        (id as usize)
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i))
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span, one tab-separated line each:
    /// `id parent req name start_ns end_ns arg`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns\targ")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.parent,
                s.req,
                s.name,
                s.start,
                s.end,
                s.arg
            )?;
        }
        Ok(())
    }
}

/// Self time of every span in `spans` (same order): duration minus the
/// union of its children's intervals, children clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent == 0 {
            continue;
        }
        let p = &spans[s.parent as usize - 1];
        let (a, b) = (s.start.max(p.start), s.end.min(p.end));
        if a < b {
            children[s.parent as usize - 1].push((a, b));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                }
                reach = reach.max(b);
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

/// Per-name aggregate of spans: durations, self times and arguments.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    /// Durations (µs).
    pub dur_us: Vec<f64>,
    /// Self times (µs).
    pub self_us: Vec<f64>,
    /// Arguments.
    pub args: Vec<u64>,
}

/// Groups spans by name with their durations and self times.
pub fn by_name(spans: &[Span]) -> HashMap<&'static str, NameStats> {
    let selfs = self_times(spans);
    let mut out: HashMap<&'static str, NameStats> = HashMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.dur_us.push(s.dur() as f64 / 1e3);
        e.self_us.push(own as f64 / 1e3);
        e.args.push(s.arg);
    }
    out
}

/// Median duration (µs) of the spans called `name`.
pub fn p50_us(groups: &HashMap<&'static str, NameStats>, name: &str) -> Option<f64> {
    groups.get(name).and_then(|g| stats::median(&g.dur_us))
}

/// Median of duration ÷ argument (µs per unit of the argument, e.g.
/// per sample of a batch) of the spans called `name`.
pub fn p50_per_arg_us(groups: &HashMap<&'static str, NameStats>, name: &str) -> Option<f64> {
    let g = groups.get(name)?;
    let per: Vec<f64> = g
        .dur_us
        .iter()
        .zip(&g.args)
        .map(|(d, &a)| d / a.max(1) as f64)
        .collect();
    stats::median(&per)
}

/// Prints a per-name table (count, median duration, median self time)
/// to `out`, sorted by name.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_table(
    groups: &HashMap<&'static str, NameStats>,
    out: &mut impl Write,
) -> std::io::Result<()> {
    let mut names: Vec<&&str> = groups.keys().collect();
    names.sort();
    writeln!(
        out,
        "{:<34} {:>8} {:>12} {:>12}",
        "span", "count", "p50 dur us", "p50 self us"
    )?;
    for name in names {
        let g = &groups[*name];
        writeln!(
            out,
            "{:<34} {:>8} {:>12.3} {:>12.3}",
            name,
            g.dur_us.len(),
            stats::median(&g.dur_us).unwrap_or(0.0),
            stats::median(&g.self_us).unwrap_or(0.0)
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: SpanId, start: u64, end: u64) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 1,
            arg: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", 0, 0, 100),
            // Two overlapping children cover [10, 50): 40 ns.
            span("a", 1, 10, 30),
            span("b", 1, 20, 50),
            // A grandchild is the child's business, not the root's.
            span("c", 2, 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![60, 14, 30, 6]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span("root", 0, 100, 200),
            span("early", 1, 50, 120),
            span("late", 1, 190, 260),
            span("outside", 1, 300, 400),
        ];
        // Covered: [100,120) + [190,200) = 30.
        assert_eq!(self_times(&spans)[0], 70);
    }

    #[test]
    fn a_span_with_no_children_is_all_self_time() {
        let spans = [span("leaf", 0, 5, 9), span("empty", 0, 9, 9)];
        assert_eq!(self_times(&spans), vec![4, 0]);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("x", 0, 0, 0, now, now), 0);
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true);
        let id = t.record("x", 0, 3, 8, now, now);
        assert_eq!(id, 1);
        let groups = by_name(t.spans());
        assert_eq!(groups["x"].args, vec![8]);
        assert!(p50_per_arg_us(&groups, "x").unwrap() >= 0.0);
    }
}

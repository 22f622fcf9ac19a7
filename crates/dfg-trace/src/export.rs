//! Trace exporters: Chrome `trace_event` JSON and a plain-text flame
//! summary.
//!
//! The Chrome format loads in `chrome://tracing` or
//! <https://ui.perfetto.dev>. Each span becomes a complete (`"ph": "X"`)
//! event; two process lanes are emitted — pid 1 carries wall-clock times,
//! pid 2 carries virtual-clock (device model) times for spans that have
//! them — and thread ids map to cluster ranks after [`Trace::merge`].

use crate::json::{escape, number};
use crate::{MetaValue, SpanRecord, Trace};
use std::fmt::Write as _;

/// Process id used for wall-clock events.
pub const PID_WALL: u64 = 1;
/// Process id used for virtual-clock (device model) events.
pub const PID_VIRTUAL: u64 = 2;

impl Trace {
    /// Export as Chrome `trace_event` JSON (the object form, with a
    /// `traceEvents` array).
    pub fn to_chrome_trace(&self) -> String {
        let mut events = Vec::new();
        // Name the two process lanes and each rank's thread.
        for (pid, name) in [
            (PID_WALL, "wall clock"),
            (PID_VIRTUAL, "virtual device clock"),
        ] {
            events.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape(name)
            ));
        }
        let mut tracks: Vec<u64> = self.spans().iter().map(|s| s.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        for track in &tracks {
            for pid in [PID_WALL, PID_VIRTUAL] {
                events.push(format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{track},\
                     \"args\":{{\"name\":\"rank {track}\"}}}}"
                ));
            }
        }
        for span in self.spans() {
            // Wall-clock lane: ts/dur in microseconds.
            events.push(complete_event(
                span,
                PID_WALL,
                span.wall_start_ns as f64 / 1e3,
                span.wall_ns() as f64 / 1e3,
            ));
            // Virtual-clock lane, when the span carries model time.
            if let (Some(vs), Some(ve)) = (span.virt_start, span.virt_end) {
                events.push(complete_event(span, PID_VIRTUAL, vs * 1e6, (ve - vs) * 1e6));
            }
        }
        format!("{{\"traceEvents\":[{}]}}", events.join(","))
    }

    /// Export as an indented plain-text flame summary: sibling spans with
    /// the same name are aggregated (count, total wall time, total virtual
    /// time, total bytes), children indented beneath their parents.
    pub fn to_flame_text(&self) -> String {
        let spans = self.spans();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        let mut roots = Vec::new();
        for (i, span) in spans.iter().enumerate() {
            match span.parent {
                Some(p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        let mut out = String::new();
        flame_level(spans, &children, &roots, 0, &mut out);
        out
    }
}

fn complete_event(span: &SpanRecord, pid: u64, ts_us: f64, dur_us: f64) -> String {
    let mut args = String::new();
    for (key, value) in &span.meta {
        let rendered = match value {
            MetaValue::Int(v) => v.to_string(),
            MetaValue::UInt(v) => v.to_string(),
            MetaValue::Float(v) if v.is_finite() => number(*v),
            MetaValue::Float(_) => "null".to_string(),
            MetaValue::Str(s) => format!("\"{}\"", escape(s)),
            MetaValue::Bool(b) => b.to_string(),
        };
        let _ = write!(args, ",\"{}\":{rendered}", escape(key));
    }
    if let Some(vt) = span.virt_seconds() {
        let _ = write!(args, ",\"virtual_seconds\":{}", number(vt));
    }
    format!(
        "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\
         \"ts\":{},\"dur\":{}{}{}}}",
        escape(&span.name),
        span.track,
        number(ts_us),
        number(dur_us),
        if args.is_empty() { "" } else { ",\"args\":{" },
        if args.is_empty() {
            String::new()
        } else {
            // Drop the leading comma and close the args object.
            format!("{}}}", &args[1..])
        },
    )
}

struct Agg {
    count: usize,
    wall_ns: u64,
    virt_s: f64,
    bytes: u64,
    members: Vec<usize>,
}

fn flame_level(
    spans: &[SpanRecord],
    children: &[Vec<usize>],
    level: &[usize],
    depth: usize,
    out: &mut String,
) {
    // Aggregate siblings by name, preserving first-seen order.
    let mut order: Vec<String> = Vec::new();
    let mut groups: Vec<Agg> = Vec::new();
    for &idx in level {
        let span = &spans[idx];
        let pos = match order.iter().position(|n| *n == span.name) {
            Some(pos) => pos,
            None => {
                order.push(span.name.clone());
                groups.push(Agg {
                    count: 0,
                    wall_ns: 0,
                    virt_s: 0.0,
                    bytes: 0,
                    members: Vec::new(),
                });
                order.len() - 1
            }
        };
        let agg = &mut groups[pos];
        agg.count += 1;
        agg.wall_ns += span.wall_ns();
        agg.virt_s += span.virt_seconds().unwrap_or(0.0);
        agg.bytes += span.meta_u64("bytes").unwrap_or(0);
        agg.members.push(idx);
    }
    for (name, agg) in order.iter().zip(&groups) {
        let indent = "  ".repeat(depth);
        let label = format!("{indent}{name}");
        let _ = write!(
            out,
            "{label:<40} count {:>4}  wall {:>10}",
            agg.count,
            format_ns(agg.wall_ns)
        );
        if agg.virt_s > 0.0 {
            let _ = write!(out, "  virt {:>10}", format_seconds(agg.virt_s));
        }
        if agg.bytes > 0 {
            let _ = write!(out, "  bytes {:>10}", format_bytes(agg.bytes));
        }
        out.push('\n');
        let next: Vec<usize> = agg
            .members
            .iter()
            .flat_map(|&m| children[m].iter().copied())
            .collect();
        if !next.is_empty() {
            flame_level(spans, children, &next, depth + 1, out);
        }
    }
}

fn format_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn format_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.4} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.2} µs", s * 1e6)
    }
}

fn format_bytes(b: u64) -> String {
    const MB: f64 = 1024.0 * 1024.0;
    let b = b as f64;
    if b >= MB {
        format!("{:.2} MiB", b / MB)
    } else if b >= 1024.0 {
        format!("{:.1} KiB", b / 1024.0)
    } else {
        format!("{b:.0} B")
    }
}

#[cfg(test)]
mod tests {
    use crate::json::{self, Value};
    use crate::{span, Tracer};

    fn sample() -> crate::Trace {
        let tracer = Tracer::new();
        {
            let _root = span!(tracer, "derive", expr = "mag = sqrt(u*u)");
            {
                let _exec = span!(tracer, "execute.staged");
                let wall = std::time::Duration::ZERO;
                tracer.device_event("ocl.h2d", "u", 4096, 0.0, 0.001, wall);
                tracer.device_event("ocl.kernel", "mul", 0, 0.001, 0.003, wall);
                tracer.device_event("ocl.h2d", "v", 4096, 0.003, 0.004, wall);
            }
        }
        tracer.snapshot()
    }

    #[test]
    fn chrome_trace_parses_back_with_expected_schema() {
        let text = sample().to_chrome_trace();
        let doc = json::parse(&text).expect("exporter emits valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        let complete: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        // 5 spans on the wall lane + 3 device spans on the virtual lane.
        assert_eq!(complete.len(), 8);
        for event in &complete {
            assert!(event.get("name").and_then(Value::as_str).is_some());
            assert!(event.get("ts").and_then(Value::as_f64).is_some());
            assert!(event.get("dur").and_then(Value::as_f64).is_some());
            assert!(event.get("pid").and_then(Value::as_f64).is_some());
            assert!(event.get("tid").and_then(Value::as_f64).is_some());
        }
        // The h2d upload carries its byte count into args.
        let upload = complete
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("ocl.h2d"))
            .expect("upload event");
        let bytes = upload
            .get("args")
            .and_then(|a| a.get("bytes"))
            .and_then(Value::as_f64);
        assert_eq!(bytes, Some(4096.0));
    }

    #[test]
    fn virtual_lane_uses_model_timestamps() {
        let text = sample().to_chrome_trace();
        let doc = json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        let virt_kernel = events
            .iter()
            .find(|e| {
                e.get("ph").and_then(Value::as_str) == Some("X")
                    && e.get("pid").and_then(Value::as_f64) == Some(2.0)
                    && e.get("name").and_then(Value::as_str) == Some("ocl.kernel")
            })
            .expect("kernel on virtual lane");
        // 0.001 s start → 1000 µs, 0.002 s duration → 2000 µs.
        assert_eq!(virt_kernel.get("ts").and_then(Value::as_f64), Some(1000.0));
        assert_eq!(virt_kernel.get("dur").and_then(Value::as_f64), Some(2000.0));
    }

    #[test]
    fn flame_text_aggregates_siblings() {
        let text = sample().to_flame_text();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("derive"));
        assert!(lines[1].trim_start().starts_with("execute.staged"));
        // Two h2d device events aggregate into one line with count 2.
        let h2d = lines
            .iter()
            .find(|l| l.trim_start().starts_with("ocl.h2d"))
            .expect("h2d line");
        assert!(h2d.contains("count    2"), "got: {h2d}");
        assert!(h2d.contains("8.0 KiB"), "got: {h2d}");
    }
}

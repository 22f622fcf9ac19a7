//! Integration tests for the observability layer: span trees recorded
//! through the engine, Chrome-trace export, and the determinism of
//! virtual-clock timestamps under `ExecMode::Model`.

use dfg::core::{Engine, EngineOptions, FieldSet, Strategy};
use dfg::ocl::{DeviceProfile, ExecMode};
use dfg::trace::json::{self, Value};
use dfg::trace::{Trace, Tracer};

fn real_fields(n: usize) -> FieldSet {
    let mut fields = FieldSet::new(n);
    fields.insert_scalar("u", vec![1.0; n]).unwrap();
    fields.insert_scalar("v", vec![2.0; n]).unwrap();
    fields.insert_scalar("w", vec![2.0; n]).unwrap();
    fields
}

fn traced_run(strategy: Strategy, mode: ExecMode) -> Trace {
    let fields = match mode {
        ExecMode::Real => real_fields(512),
        ExecMode::Model => {
            let mut fields = FieldSet::new(512);
            fields.insert_virtual_scalar("u");
            fields.insert_virtual_scalar("v");
            fields.insert_virtual_scalar("w");
            fields
        }
    };
    let mut engine = Engine::with_options(
        DeviceProfile::nvidia_m2050(),
        EngineOptions {
            mode,
            ..Default::default()
        },
    );
    engine.set_tracer(Tracer::new());
    let report = engine
        .derive("mag = sqrt(u*u + v*v + w*w)", &fields, strategy)
        .expect("derivation succeeds");
    report.trace.expect("tracer attached")
}

#[test]
fn engine_spans_nest_parse_plan_execute_and_device_events() {
    let trace = traced_run(Strategy::Staged, ExecMode::Real);
    let spans = trace.spans();
    let index_of = |name: &str| {
        spans
            .iter()
            .position(|s| s.name == name)
            .unwrap_or_else(|| panic!("span `{name}` missing"))
    };

    // The root covers the whole derivation; parse/plan/execute are its
    // children; strategy stages sit under execute; device events are leaves.
    let root = index_of("derive");
    assert_eq!(spans[root].parent, None);
    let exec = index_of("execute.staged");
    for name in ["parse", "plan", "execute.staged"] {
        assert_eq!(spans[index_of(name)].parent, Some(root), "{name} parent");
    }
    for name in ["staged.upload", "staged.kernel", "staged.download"] {
        assert_eq!(spans[index_of(name)].parent, Some(exec), "{name} parent");
    }
    let h2d = index_of("ocl.h2d");
    assert_eq!(spans[h2d].parent, Some(index_of("staged.upload")));
    assert!(spans[h2d].meta_u64("bytes").unwrap() > 0);

    // Parents are recorded before their children (open order), and every
    // span's interval nests inside its parent's.
    for (i, span) in spans.iter().enumerate() {
        if let Some(p) = span.parent {
            assert!(p < i, "parent of `{}` recorded after it", span.name);
            assert!(spans[p].wall_start_ns <= span.wall_start_ns);
            assert!(spans[p].wall_end_ns >= span.wall_end_ns);
        }
    }
}

#[test]
fn chrome_export_of_an_engine_trace_is_valid_json() {
    let trace = traced_run(Strategy::Fusion, ExecMode::Real);
    let doc = json::parse(&trace.to_chrome_trace()).expect("valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    // Every complete event carries the required Chrome-trace fields.
    let complete: Vec<&Value> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .collect();
    assert!(!complete.is_empty());
    for event in &complete {
        for key in ["name", "ts", "dur", "pid", "tid"] {
            assert!(event.get(key).is_some(), "missing {key}");
        }
    }
    // Device events appear on the virtual-clock lane (pid 2).
    assert!(complete.iter().any(|e| {
        e.get("pid").and_then(Value::as_f64) == Some(2.0)
            && e.get("name").and_then(Value::as_str) == Some("ocl.kernel")
    }));
}

#[test]
fn model_mode_virtual_timestamps_are_deterministic() {
    for strategy in [Strategy::Roundtrip, Strategy::Staged, Strategy::Fusion] {
        let a = traced_run(strategy, ExecMode::Model);
        let b = traced_run(strategy, ExecMode::Model);
        assert_eq!(a.spans().len(), b.spans().len(), "{strategy}: span count");
        for (sa, sb) in a.spans().iter().zip(b.spans()) {
            assert_eq!(sa.name, sb.name);
            assert_eq!(sa.parent, sb.parent);
            // Wall clocks differ run to run; the modeled device clock must
            // not — bit-identical, not merely close.
            assert_eq!(sa.virt_start, sb.virt_start, "{strategy}: {}", sa.name);
            assert_eq!(sa.virt_end, sb.virt_end, "{strategy}: {}", sa.name);
        }
    }
}

#[test]
fn model_and_real_mode_agree_on_the_virtual_clock() {
    let model = traced_run(Strategy::Fusion, ExecMode::Model);
    let real = traced_run(Strategy::Fusion, ExecMode::Real);
    assert!((model.device_seconds() - real.device_seconds()).abs() < 1e-12);
}

#[test]
fn device_spans_carry_host_wall_time_and_untraced_virtual_times() {
    let fields = real_fields(16 * 16 * 16);
    let derive = |traced: bool| {
        let mut engine = Engine::new(DeviceProfile::nvidia_m2050());
        if traced {
            engine.set_tracer(Tracer::new());
        }
        engine
            .derive("mag = sqrt(u*u + v*v + w*w)", &fields, Strategy::Fusion)
            .expect("derivation succeeds")
    };
    let traced = derive(true);
    let untraced = derive(false);
    let trace = traced.trace.expect("tracer attached");
    let kernel = trace
        .spans()
        .iter()
        .find(|s| s.name == "ocl.kernel")
        .expect("kernel span");
    assert!(kernel.wall_ns() > 0, "the kernel body's host time");
    // Timing the host body leaves the virtual clock alone: every device
    // span's endpoints are bit-identical to the untraced run's events.
    let spans: Vec<(u64, u64)> = trace
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("ocl."))
        .map(|s| {
            (
                s.virt_start.unwrap().to_bits(),
                s.virt_end.unwrap().to_bits(),
            )
        })
        .collect();
    let events: Vec<(u64, u64)> = untraced
        .profile
        .events
        .iter()
        .map(|e| (e.t_start.to_bits(), e.t_end.to_bits()))
        .collect();
    assert_eq!(spans, events);
}

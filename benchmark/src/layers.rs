//! Per-layer measurement from outside the program: spans the benchmark
//! records around calls into each crate's public functions, the
//! decomposed fusion/reference protocol driver, and the memcpy ceiling.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use dfg_core::{Engine, EngineOptions, FieldSet, Strategy, Workload};
use dfg_dataflow::{optimize, OptLevel, Schedule};
use dfg_kernels::{fuse, FusedKernel, FusedProgram};
use dfg_ocl::{Context, DeviceKernel, DeviceProfile, ExecMode};
use dfg_trace::{span, Trace, Tracer};

use crate::oracle::{check_close, output_name};
use crate::report::{Checker, Metric};
use crate::stats::median;

/// Every per-layer metric, in report order, with its unit. A workload
/// reports 0 for a layer it does not exercise (no `serve.*` outside the
/// server, no `core.session.*` without a session).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ocl.h2d_ms", "ms"),
    ("ocl.d2h_ms", "ms"),
    ("ocl.alloc_us", "us"),
    ("ocl.h2d_pct_ceiling", "%"),
    ("ocl.d2h_pct_ceiling", "%"),
    ("ocl.dev_w", "count"),
    ("ocl.dev_r", "count"),
    ("ocl.k_exe", "count"),
    ("ocl.device_peak_mib", "MiB"),
    ("ocl.self_ms", "ms"),
    ("core.overhead_ms.fusion.v_mag", "ms"),
    ("core.overhead_ms.fusion.w_mag", "ms"),
    ("core.overhead_ms.fusion.q_crit", "ms"),
    ("core.derive_ms.v_mag", "ms"),
    ("core.derive_ms.w_mag", "ms"),
    ("core.derive_ms.q_crit", "ms"),
    ("core.session.uploads_skipped", "count"),
    ("core.session.pool_hits", "count"),
    ("core.session.codegen_cached", "count"),
    ("kernels.fused_ms.v_mag", "ms"),
    ("kernels.fused_ms.w_mag", "ms"),
    ("kernels.fused_ms.q_crit", "ms"),
    ("kernels.reference_ms.v_mag", "ms"),
    ("kernels.reference_ms.w_mag", "ms"),
    ("kernels.reference_ms.q_crit", "ms"),
    ("kernels.fused_over_reference.v_mag", "ratio"),
    ("kernels.fused_over_reference.w_mag", "ratio"),
    ("kernels.fused_over_reference.q_crit", "ratio"),
    ("kernels.pct_ceiling.v_mag", "%"),
    ("kernels.pct_ceiling.w_mag", "%"),
    ("kernels.pct_ceiling.q_crit", "%"),
    ("kernels.fuse_us", "us"),
    ("kernels.self_ms", "ms"),
    ("expr.compile_us", "us"),
    ("expr.self_ms", "ms"),
    ("dataflow.optimize_us", "us"),
    ("dataflow.schedule_us", "us"),
    ("dataflow.filters", "count"),
    ("dataflow.self_ms", "ms"),
    ("serve.compiles_per_request", "count"),
    ("serve.coalesced_frac", "ratio"),
    ("serve.exec_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.encode_us.data", "us"),
    ("serve.encode_us.meta", "us"),
    ("serve.decode_us.data", "us"),
    ("serve.decode_us.meta", "us"),
    ("exec.jobs", "count"),
    ("exec.stolen_frac", "ratio"),
    ("ceiling.memcpy_gbps", "GB/s"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer values of one run, defaulting to 0.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not listed in PER_LAYER"));
        self.values.insert(key, value);
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric::new(name, unit, *self.values.get(name).unwrap_or(&0.0)))
            .collect()
    }
}

/// Wall durations (ms) of every span named `name`.
pub fn span_ms(trace: &Trace, name: &str) -> Vec<f64> {
    trace
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.wall_ns() as f64 / 1e6)
        .collect()
}

/// Self time (ms) per layer: each span's duration minus what its child
/// spans cover, summed under the span name's first dot-component.
pub fn self_ms_by_layer(trace: &Trace) -> BTreeMap<String, f64> {
    let spans = trace.spans();
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.wall_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, &c) in spans.iter().zip(&covered) {
        let layer = s.name.split('.').next().unwrap_or_default().to_string();
        *out.entry(layer).or_insert(0.0) += s.wall_ns().saturating_sub(c) as f64 / 1e6;
    }
    out
}

/// In-process copy bandwidth over `bytes`-sized buffers, in GB/s of
/// traffic (bytes read plus bytes written), the same convention as the
/// transfer and kernel figures it is the ceiling for.
pub fn memcpy_gbps(bytes: usize) -> f64 {
    let n = bytes / 4;
    let src: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let mut dst = vec![1.0f32; n];
    let times: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            t.elapsed().as_secs_f64()
        })
        .collect();
    2.0 * bytes as f64 / median(&times) / 1e9
}

/// Host memory high-water mark of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// `exec` pool jobs per operation and the share of them stolen, from
/// `dfg_exec::global().stats()` taken before and after the untraced phase.
pub fn set_exec(layers: &mut Layers, before: (u64, u64), after: (u64, u64), ops: f64) {
    let jobs = (after.0 - before.0) as f64;
    let stolen = (after.1 - before.1) as f64;
    layers.set("exec.jobs", jobs / ops);
    layers.set(
        "exec.stolen_frac",
        if jobs > 0.0 { stolen / jobs } else { 0.0 },
    );
}

/// Mean traced operation time against the mean untraced one, in percent.
pub fn set_trace_overhead(layers: &mut Layers, untraced: &[f64], traced: &[f64]) {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    layers.set(
        "trace.overhead_pct",
        100.0 * (mean(traced) / mean(untraced) - 1.0),
    );
}

/// Dev-W, Dev-R and K-Exe summed over reports.
pub fn set_table2(layers: &mut Layers, rows: &[(usize, usize, usize)]) {
    let sum = |f: fn(&(usize, usize, usize)) -> usize| rows.iter().map(f).sum::<usize>() as f64;
    layers.set("ocl.dev_w", sum(|r| r.0));
    layers.set("ocl.dev_r", sum(|r| r.1));
    layers.set("ocl.k_exe", sum(|r| r.2));
}

/// Filters in `source`'s network reachable from the bindings named in
/// `outputs` (the kernel launches a staged execution would make).
pub fn filters(source: &str, outputs: &[&str]) -> usize {
    let spec = dfg_expr::compile(source).expect("benchmark expressions compile");
    let roots: Vec<_> = outputs
        .iter()
        .map(|name| {
            spec.iter()
                .filter(|(_, node)| node.name.as_deref() == Some(*name))
                .map(|(id, _)| id)
                .last()
                .expect("output is bound")
        })
        .collect();
    optimize(&spec, &roots, OptLevel::Off)
        .expect("benchmark expressions schedule")
        .stats
        .filters_before
}

/// Compile `source` through the public front end, optimizer, scheduler and
/// kernel generator, one span per call.
pub fn compile_pipeline(tracer: &Tracer, source: &str) -> Result<FusedProgram, String> {
    let spec = {
        let _s = span!(tracer, "expr.compile");
        dfg_expr::compile(source).map_err(|e| e.to_string())?
    };
    let opt = {
        let _s = span!(tracer, "dataflow.optimize");
        optimize(&spec, &[spec.result], OptLevel::Off).map_err(|e| e.to_string())?
    };
    {
        let _s = span!(tracer, "dataflow.schedule");
        Schedule::new(&opt.spec).map_err(|e| e.to_string())?;
    }
    let _s = span!(tracer, "kernels.fuse");
    fuse(&opt.spec).map_err(|e| e.to_string())
}

/// Set the compile-path latencies (median per call) from `trace`.
pub fn set_compile_metrics(layers: &mut Layers, trace: &Trace) {
    let us = |name: &str| median(&span_ms(trace, name)) * 1e3;
    layers.set("expr.compile_us", us("expr.compile"));
    layers.set("dataflow.optimize_us", us("dataflow.optimize"));
    layers.set("dataflow.schedule_us", us("dataflow.schedule"));
    layers.set("kernels.fuse_us", us("kernels.fuse"));
}

/// Inputs of the decomposed protocol driver: a workload's fields, the
/// device profile it runs on, and the oracle output of each paper
/// expression on those fields (in `Workload::ALL` order).
pub struct ProbeInput<'a> {
    pub fields: &'a FieldSet,
    pub profile: DeviceProfile,
    pub oracles: &'a [Vec<f32>],
}

/// Bytes the fused paths copied, which the spans do not carry.
#[derive(Default)]
struct Moved {
    h2d_bytes: u64,
    d2h_bytes: u64,
}

fn ocl_err(e: dfg_ocl::OclError) -> String {
    e.to_string()
}

/// Fusion rebuilt from public calls: compile, fuse, then allocate, upload,
/// launch, download and release on a fresh context.
fn fused_path(
    tracer: &Tracer,
    input: &ProbeInput,
    workload: Workload,
    moved: &mut Moved,
) -> Result<(Vec<f32>, u64), String> {
    let name = output_name(workload);
    let fields = input.fields;
    let n = fields.ncells();
    let _path = span!(tracer, &format!("probe.fused.{name}"));
    let program = compile_pipeline(tracer, workload.source())?;
    let slots = program.inputs.clone();
    let out_lanes = program.lanes_per_elem * n;
    let kernel = FusedKernel::new(program, name);
    let cost = kernel.cost(n);
    let mut ctx = Context::new(input.profile.clone(), ExecMode::Real);
    let mut bufs = Vec::with_capacity(slots.len());
    for slot in &slots {
        let data = fields
            .get(&slot.name)
            .and_then(|f| f.data.as_ref())
            .ok_or_else(|| format!("missing input {}", slot.name))?;
        let buf = {
            let _s = span!(tracer, "ocl.alloc");
            ctx.create_buffer(data.len()).map_err(ocl_err)?
        };
        {
            let _s = span!(tracer, "ocl.h2d");
            ctx.enqueue_write(buf, data).map_err(ocl_err)?;
        }
        moved.h2d_bytes += data.len() as u64 * 4;
        bufs.push(buf);
    }
    let out = {
        let _s = span!(tracer, "ocl.alloc");
        ctx.create_buffer(out_lanes).map_err(ocl_err)?
    };
    {
        let _s = span!(tracer, &format!("kernels.fused.{name}"));
        ctx.launch(&kernel, &bufs, out, n).map_err(ocl_err)?;
    }
    let data = {
        let _s = span!(tracer, "ocl.d2h");
        ctx.enqueue_read(out).map_err(ocl_err)?
    };
    moved.d2h_bytes += out_lanes as u64 * 4;
    for buf in bufs.into_iter().chain([out]) {
        let _s = span!(tracer, "ocl.release");
        ctx.release(buf).map_err(ocl_err)?;
    }
    Ok((data, cost.bytes_read + cost.bytes_written))
}

/// The hand-written reference kernel under the same buffer protocol.
fn reference_path(
    tracer: &Tracer,
    input: &ProbeInput,
    workload: Workload,
) -> Result<Vec<f32>, String> {
    let name = output_name(workload);
    let n = input.fields.ncells();
    let _path = span!(tracer, &format!("probe.reference.{name}"));
    let kernel = workload.reference_kernel();
    let mut ctx = Context::new(input.profile.clone(), ExecMode::Real);
    let mut bufs = Vec::new();
    for field in workload.reference_input_names() {
        let data = input
            .fields
            .get(field)
            .and_then(|f| f.data.as_ref())
            .ok_or_else(|| format!("missing input {field}"))?;
        let buf = {
            let _s = span!(tracer, "ocl.alloc");
            ctx.create_buffer(data.len()).map_err(ocl_err)?
        };
        {
            let _s = span!(tracer, "ocl.h2d");
            ctx.enqueue_write(buf, data).map_err(ocl_err)?;
        }
        bufs.push(buf);
    }
    let out = {
        let _s = span!(tracer, "ocl.alloc");
        ctx.create_buffer(n).map_err(ocl_err)?
    };
    {
        let _s = span!(tracer, &format!("kernels.reference.{name}"));
        ctx.launch(kernel.as_ref(), &bufs, out, n)
            .map_err(ocl_err)?;
    }
    let data = {
        let _s = span!(tracer, "ocl.d2h");
        ctx.enqueue_read(out).map_err(ocl_err)?
    };
    for buf in bufs.into_iter().chain([out]) {
        let _s = span!(tracer, "ocl.release");
        ctx.release(buf).map_err(ocl_err)?;
    }
    Ok(data)
}

/// Run the decomposed driver `reps` times over the three paper
/// expressions, next to `Engine::derive` with fusion on the same inputs,
/// checking every output against the oracle, and set the `ocl`,
/// `kernels`, `expr`, `dataflow` and `core` per-layer metrics from the
/// spans. Returns the probe's trace.
pub fn probe(input: &ProbeInput, reps: usize, check: &mut Checker, layers: &mut Layers) -> Trace {
    let n = input.fields.ncells();
    let ceiling = memcpy_gbps(n * 4);
    layers.set("ceiling.memcpy_gbps", ceiling);

    let mut engine = Engine::with_options(input.profile.clone(), EngineOptions::default());
    let mut fusion_rows = Vec::new();
    let mut peak = 0u64;
    for (w, oracle) in Workload::ALL.into_iter().zip(input.oracles) {
        // Warm the engine's compile cache, as in every workload's set-up.
        let verdict = engine
            .derive(w.source(), input.fields, Strategy::Fusion)
            .map_err(|e| e.to_string())
            .and_then(|r| {
                fusion_rows.push(r.table2_row());
                peak = peak.max(r.high_water_bytes());
                check_close(&r.field.ok_or("no field returned")?.data, oracle)
            });
        check.record(&format!("probe warm-up {}", output_name(w)), verdict);
    }

    let tracer = Tracer::new();
    let mut moved = Moved::default();
    let mut traffic = [0u64; 3];
    for _ in 0..reps {
        for (i, (w, oracle)) in Workload::ALL.into_iter().zip(input.oracles).enumerate() {
            let name = output_name(w);
            let verdict = fused_path(&tracer, input, w, &mut moved).and_then(|(data, bytes)| {
                traffic[i] = bytes;
                check_close(&data, oracle)
            });
            check.record(&format!("decomposed fusion {name}"), verdict);
            let verdict =
                reference_path(&tracer, input, w).and_then(|data| check_close(&data, oracle));
            check.record(&format!("decomposed reference {name}"), verdict);
            let verdict = {
                let _s = span!(tracer, &format!("core.derive.{name}"));
                engine.derive(w.source(), input.fields, Strategy::Fusion)
            }
            .map_err(|e| e.to_string())
            .and_then(|r| check_close(&r.field.ok_or("no field returned")?.data, oracle));
            check.record(&format!("probe derive {name}"), verdict);
        }
    }
    let trace = tracer.snapshot();
    let spans = trace.spans();
    // Transfer and kernel time of each fused path, by expression.
    let mut h2d_total = 0.0;
    let mut d2h_total = 0.0;
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        let name = output_name(w);
        let path = format!("probe.fused.{name}");
        let kernel = format!("kernels.fused.{name}");
        let mut decomposed = Vec::new();
        for (p, _) in spans.iter().enumerate().filter(|(_, s)| s.name == path) {
            let mut sum = 0.0;
            for child in spans.iter().filter(|s| s.parent == Some(p)) {
                let ms = child.wall_ns() as f64 / 1e6;
                match child.name.as_str() {
                    "ocl.h2d" => h2d_total += ms,
                    "ocl.d2h" => d2h_total += ms,
                    _ => {}
                }
                if child.name == "ocl.h2d" || child.name == "ocl.d2h" || child.name == kernel {
                    sum += ms;
                }
            }
            decomposed.push(sum);
        }
        let fused = median(&span_ms(&trace, &kernel));
        let reference = median(&span_ms(&trace, &format!("kernels.reference.{name}")));
        let derives = span_ms(&trace, &format!("core.derive.{name}"));
        let derive = median(&derives);
        // Paired per repetition, so drift between repetitions cancels.
        let overhead: Vec<f64> = derives
            .iter()
            .zip(&decomposed)
            .map(|(d, p)| d - p)
            .collect();
        layers.set(&format!("kernels.fused_ms.{name}"), fused);
        layers.set(&format!("kernels.reference_ms.{name}"), reference);
        layers.set(
            &format!("kernels.fused_over_reference.{name}"),
            fused / reference,
        );
        let kernel_gbps = traffic[i] as f64 / (fused / 1e3) / 1e9;
        layers.set(
            &format!("kernels.pct_ceiling.{name}"),
            100.0 * kernel_gbps / ceiling,
        );
        layers.set(&format!("core.derive_ms.{name}"), derive);
        layers.set(
            &format!("core.overhead_ms.fusion.{name}"),
            median(&overhead),
        );
    }
    let reps_f = reps as f64;
    layers.set("ocl.h2d_ms", h2d_total / reps_f);
    layers.set("ocl.d2h_ms", d2h_total / reps_f);
    // A copy moves each byte twice (read and write), as memcpy does.
    let pct = |bytes: u64, ms: f64| 100.0 * (2.0 * bytes as f64 / (ms / 1e3) / 1e9) / ceiling;
    layers.set("ocl.h2d_pct_ceiling", pct(moved.h2d_bytes, h2d_total));
    layers.set("ocl.d2h_pct_ceiling", pct(moved.d2h_bytes, d2h_total));
    layers.set("ocl.alloc_us", median(&span_ms(&trace, "ocl.alloc")) * 1e3);
    set_table2(layers, &fusion_rows);
    layers.set("ocl.device_peak_mib", peak as f64 / (1 << 20) as f64);
    set_compile_metrics(layers, &trace);
    let rotation_filters: usize = Workload::ALL
        .iter()
        .map(|w| filters(w.source(), &[output_name(*w)]))
        .sum();
    layers.set("dataflow.filters", rotation_filters as f64);
    let self_ms = self_ms_by_layer(&trace);
    for layer in ["ocl", "kernels", "expr", "dataflow"] {
        layers.set(
            &format!("{layer}.self_ms"),
            self_ms.get(layer).copied().unwrap_or(0.0) / reps_f,
        );
    }
    trace
}

//! `insitu_session`: the paper's in-situ host. One persistent `Session` on
//! the GPU profile; each cycle writes a pre-generated `dfg-sim` time step
//! into the same `FieldSet` and derives `v_mag`, `w_mag` and `q_crit` in
//! one fused `derive_many` call. Only the derive is timed.

use std::time::Instant;

use dfg_core::{Engine, EngineOptions, FieldSet, Session, Strategy, Workload};
use dfg_expr::workloads::{Q_CRITERION, VELOCITY_MAGNITUDE, VORTICITY_MAGNITUDE};
use dfg_mesh::RtWorkload;
use dfg_ocl::DeviceProfile;
use dfg_sim::FlowSimulation;
use dfg_trace::{span, Trace, Tracer};

use crate::layers::{self, Layers, ProbeInput};
use crate::oracle::{check_close, reference, ModelSig};
use crate::report::{Checker, Outcome};
use crate::{end_to_end, set_up, Args};

/// 64³ cells: each field is 1 MiB and fits the 2 MiB per-core L2.
const DIMS: [usize; 3] = [64, 64, 64];
/// Pre-generated solver steps the cycles walk through, in order.
const STEPS: usize = 6;
const OUTPUTS: [&str; 3] = ["v_mag", "w_mag", "q_crit"];

fn source() -> String {
    format!("{VELOCITY_MAGNITUDE}{VORTICITY_MAGNITUDE}{Q_CRITERION}")
}

struct Setup {
    session: Session,
    fields: FieldSet,
    source: String,
    /// `(u, v, w)` of each step.
    steps: Vec<[Vec<f32>; 3]>,
    /// Reference-kernel outputs of each step, in `OUTPUTS` order.
    oracles: Vec<Vec<Vec<f32>>>,
    sig: Option<ModelSig>,
    cycle: usize,
}

impl Setup {
    fn new(seed: u64, check: &mut Checker) -> Setup {
        let mut sim = FlowSimulation::from_workload(DIMS, &RtWorkload::new(seed, 4));
        let fields = sim.fields().clone();
        let mut steps = Vec::with_capacity(STEPS);
        for _ in 0..STEPS {
            sim.step(0.01);
            let (u, v, w) = sim.velocity();
            steps.push([u.to_vec(), v.to_vec(), w.to_vec()]);
        }
        let mut ref_engine = Engine::new(DeviceProfile::nvidia_m2050());
        let oracles = steps
            .iter()
            .map(|step| {
                let mut fs = fields.clone();
                for (name, data) in ["u", "v", "w"].into_iter().zip(step) {
                    fs.update_scalar(name, data).expect("step matches the mesh");
                }
                Workload::ALL
                    .iter()
                    .map(|&w| reference(&mut ref_engine, w, &fs))
                    .collect()
            })
            .collect();
        let engine = Engine::with_options(DeviceProfile::nvidia_m2050(), EngineOptions::default());
        let mut setup = Setup {
            session: engine.into_session(),
            fields,
            source: source(),
            steps,
            oracles,
            sig: None,
            cycle: 0,
        };
        // Cycle 0 uploads the static mesh; cycle 1 is the first steady one.
        for _ in 0..2 {
            setup.cycle(check, "warm-up cycle");
        }
        setup
    }

    /// Advance one time step and derive; returns the derive's wall seconds.
    fn cycle(&mut self, check: &mut Checker, what: &str) -> f64 {
        let k = self.cycle % STEPS;
        self.cycle += 1;
        for (name, data) in ["u", "v", "w"].into_iter().zip(&self.steps[k]) {
            self.fields
                .update_scalar(name, data)
                .expect("step matches the mesh");
        }
        let t = Instant::now();
        let result =
            self.session
                .derive_many(&self.source, &OUTPUTS, &self.fields, Strategy::Fusion);
        let wall = t.elapsed().as_secs_f64();
        let verdict = result
            .map_err(|e| e.to_string())
            .and_then(|(outputs, report)| {
                if outputs.len() != OUTPUTS.len() {
                    return Err(format!("{} outputs", outputs.len()));
                }
                for ((name, field), want) in outputs.iter().zip(&self.oracles[k]) {
                    check_close(&field.data, want).map_err(|e| format!("{name}: {e}"))?;
                }
                let sig = ModelSig::of(&report);
                match self.sig {
                    Some(pinned) if pinned != sig => {
                        Err(format!("model {sig:?}, pinned {pinned:?}"))
                    }
                    Some(_) => Ok(()),
                    // Cycle 0 also uploads the static mesh; the first
                    // steady cycle pins the signature.
                    None => {
                        if self.cycle > 1 {
                            self.sig = Some(sig);
                        }
                        Ok(())
                    }
                }
            });
        check.record(what, verdict);
        wall
    }

    fn measure(&mut self, seconds: f64, tracer: Option<&Tracer>, check: &mut Checker) -> Vec<f64> {
        let start = Instant::now();
        let mut walls = Vec::new();
        while start.elapsed().as_secs_f64() < seconds {
            let _s = span!(tracer, "core.session.derive_many");
            walls.push(self.cycle(check, "cycle"));
        }
        walls
    }
}

pub fn run(args: &Args) -> (Outcome, Option<Trace>) {
    let mut check = Checker::default();
    let (mut setup, setup_s) = set_up(|| Setup::new(args.seed, &mut check), drop);
    let ncells = setup.fields.ncells() as f64;

    let untraced = args.untraced_seconds();
    let exec0 = dfg_exec::global().stats();
    let stats0 = setup.session.stats().clone();
    let pool0 = setup.session.pool_hits();
    let walls = setup.measure(untraced, None, &mut check);
    let exec1 = dfg_exec::global().stats();
    let stats1 = setup.session.stats().clone();
    let pool1 = setup.session.pool_hits();
    let ms: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
    let total_s: f64 = walls.iter().sum();
    let cycles = walls.len() as f64;
    let end_to_end = end_to_end(
        &setup_s,
        ncells * OUTPUTS.len() as f64 * cycles / total_s,
        &ms,
        cycles / total_s,
    );
    let sig = setup.sig.expect("steady cycle pinned at set-up");
    let notes = vec![
        format!(
            "session derive_many(v_mag, w_mag, q_crit) at {}x{}x{}, GPU profile, {} cycles",
            DIMS[0],
            DIMS[1],
            DIMS[2],
            walls.len()
        ),
        format!("per cycle: {}", sig.describe()),
    ];

    let mut layers = Layers::default();
    let trace = args.trace.then(|| {
        let tracer = Tracer::new();
        let traced = setup.measure(args.seconds - untraced, Some(&tracer), &mut check);
        layers::set_trace_overhead(&mut layers, &walls, &traced);
        // The probe runs on the step the session saw last.
        let k = (setup.cycle + STEPS - 1) % STEPS;
        let probe = layers::probe(
            &ProbeInput {
                fields: &setup.fields,
                profile: DeviceProfile::nvidia_m2050(),
                oracles: &setup.oracles[k],
            },
            5,
            &mut check,
            &mut layers,
        );
        let per_cycle = |a: u64, b: u64| (b - a) as f64 / cycles;
        layers.set(
            "core.session.uploads_skipped",
            per_cycle(stats0.uploads_skipped, stats1.uploads_skipped),
        );
        layers.set("core.session.pool_hits", per_cycle(pool0, pool1));
        layers.set(
            "core.session.codegen_cached",
            per_cycle(stats0.codegen_cached, stats1.codegen_cached),
        );
        layers::set_table2(&mut layers, &[sig.table2]);
        layers.set("ocl.device_peak_mib", sig.peak_mib());
        layers.set(
            "dataflow.filters",
            layers::filters(&setup.source, &OUTPUTS) as f64,
        );
        layers::set_exec(&mut layers, exec0, exec1, cycles);
        Trace::merge([(0, tracer.snapshot()), (1, probe)])
    });
    let outcome = Outcome {
        check,
        end_to_end,
        per_layer: layers.into_metrics(),
        notes,
    };
    (outcome, trace)
}

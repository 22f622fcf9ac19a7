//! `paper_oneshot_*`: the paper's Figure 5 experiment on the wall clock.
//! One workload per strategy, so each strategy's throughput is its own
//! end-to-end figure; a rotation derives VelMag, VortMag and Q-Crit once.

use std::time::{Duration, Instant};

use dfg_core::{Engine, EngineOptions, ExecReport, FieldSet, OptLevel, Strategy, Workload};
use dfg_mesh::{RectilinearMesh, RtWorkload};
use dfg_ocl::DeviceProfile;
use dfg_trace::{span, Trace, Tracer};

use crate::layers::{self, Layers, ProbeInput};
use crate::oracle::{check_close, output_name, reference, ModelSig};
use crate::report::{Checker, Outcome};
use crate::stats::median;
use crate::{end_to_end, set_up, Args};

/// 128³ cells: each field is 8 MiB, 4× the 2 MiB per-core L2.
const DIMS: [usize; 3] = [128, 128, 128];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Core(Strategy),
    /// `Engine::derive_streamed` with a budget of ¼ of fusion's high-water
    /// mark, so each call splits into several slabs.
    Streamed,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Core(s) => s.name(),
            Mode::Streamed => "streamed",
        }
    }
}

struct Case {
    workload: Workload,
    reference: Vec<f32>,
    budget: u64,
    sig: ModelSig,
}

struct Setup {
    mode: Mode,
    fields: FieldSet,
    engine: Engine,
    cases: Vec<Case>,
}

impl Setup {
    fn new(mode: Mode, seed: u64, check: &mut Checker) -> Setup {
        let mesh = RectilinearMesh::unit_cube(DIMS);
        let fields = FieldSet::for_rt_mesh(&mesh, &RtWorkload::new(seed, 4));
        let options = EngineOptions {
            optimize: OptLevel::Off,
            ..EngineOptions::default()
        };
        let mut engine = Engine::with_options(DeviceProfile::intel_x5660(), options);
        let unpinned = ModelSig {
            device_s: 0,
            high_water: 0,
            table2: (0, 0, 0),
        };
        let cases = Workload::ALL
            .into_iter()
            .map(|workload| {
                let budget = match mode {
                    Mode::Streamed => {
                        engine
                            .derive(workload.source(), &fields, Strategy::Fusion)
                            .expect("fusion runs at set-up")
                            .high_water_bytes()
                            / 4
                    }
                    Mode::Core(_) => 0,
                };
                Case {
                    workload,
                    reference: reference(&mut engine, workload, &fields),
                    budget,
                    sig: unpinned,
                }
            })
            .collect();
        let mut setup = Setup {
            mode,
            fields,
            engine,
            cases,
        };
        // Warm-up rotation: fills the compile cache and pins each call's
        // model signature.
        for i in 0..setup.cases.len() {
            let (report, _) = setup.call(i);
            let what = format!("warm-up {}", output_name(setup.cases[i].workload));
            if let Some(r) = setup.verify(i, report, check, &what, false) {
                setup.cases[i].sig = ModelSig::of(&r);
            }
        }
        setup
    }

    fn call(&mut self, i: usize) -> (Result<ExecReport, String>, Duration) {
        let case = &self.cases[i];
        let source = case.workload.source();
        let t = Instant::now();
        let r = match self.mode {
            Mode::Core(s) => self.engine.derive(source, &self.fields, s),
            Mode::Streamed => self
                .engine
                .derive_streamed(source, &self.fields, Some(case.budget)),
        };
        (r.map_err(|e| e.to_string()), t.elapsed())
    }

    /// Oracle check of one call: output against the reference kernel,
    /// Table II counts against the paper (streamed: several slabs), and
    /// the model signature against the warm-up call's.
    fn verify(
        &self,
        i: usize,
        report: Result<ExecReport, String>,
        check: &mut Checker,
        what: &str,
        pinned: bool,
    ) -> Option<ExecReport> {
        let case = &self.cases[i];
        let verdict = report.and_then(|r| {
            let data = &r.field.as_ref().ok_or("no field returned")?.data;
            check_close(data, &case.reference)?;
            let row = r.table2_row();
            match self.mode {
                Mode::Core(s) if row != case.workload.paper_table2(s) => {
                    return Err(format!(
                        "Table II {row:?}, paper {:?}",
                        case.workload.paper_table2(s)
                    ))
                }
                Mode::Streamed if row.2 < 2 => return Err(format!("{} slabs", row.2)),
                _ => {}
            }
            if pinned && ModelSig::of(&r) != case.sig {
                return Err(format!(
                    "model {:?}, warm-up {:?}",
                    ModelSig::of(&r),
                    case.sig
                ));
            }
            Ok(r)
        });
        check.record(what, verdict)
    }

    /// Whole rotations until `seconds` have passed; returns each
    /// rotation's summed call time.
    fn measure(&mut self, seconds: f64, tracer: Option<&Tracer>, check: &mut Checker) -> Vec<f64> {
        let start = Instant::now();
        let mut walls = Vec::new();
        while start.elapsed().as_secs_f64() < seconds {
            let mut rotation = 0.0;
            for i in 0..self.cases.len() {
                let name = output_name(self.cases[i].workload);
                let (report, wall) = {
                    let _s = span!(tracer, &format!("core.derive.{name}"));
                    self.call(i)
                };
                self.verify(
                    i,
                    report,
                    check,
                    &format!("{} {name}", self.mode.name()),
                    true,
                );
                rotation += wall.as_secs_f64();
            }
            walls.push(rotation);
        }
        walls
    }
}

pub fn run(mode: Mode, args: &Args) -> (Outcome, Option<Trace>) {
    let mut check = Checker::default();
    let (mut setup, setup_s) = set_up(|| Setup::new(mode, args.seed, &mut check), drop);
    let ncells = setup.fields.ncells() as f64;

    let untraced = args.untraced_seconds();
    let exec0 = dfg_exec::global().stats();
    let walls = setup.measure(untraced, None, &mut check);
    let exec1 = dfg_exec::global().stats();
    let ms: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
    let total_s: f64 = walls.iter().sum();
    let rotations = walls.len() as f64;
    let cells = ncells * setup.cases.len() as f64 * rotations;
    let end_to_end = end_to_end(&setup_s, cells / total_s, &ms, rotations / total_s);
    let mut notes = vec![format!(
        "{} at {}x{}x{}, CPU profile, OptLevel::Off, {} rotations",
        mode.name(),
        DIMS[0],
        DIMS[1],
        DIMS[2],
        walls.len()
    )];
    for case in &setup.cases {
        notes.push(format!(
            "{} {}",
            output_name(case.workload),
            case.sig.describe()
        ));
    }

    let mut layers = Layers::default();
    let trace = args.trace.then(|| {
        let tracer = Tracer::new();
        let traced = setup.measure(args.seconds - untraced, Some(&tracer), &mut check);
        layers::set_trace_overhead(&mut layers, &walls, &traced);
        let oracles: Vec<Vec<f32>> = setup.cases.iter().map(|c| c.reference.clone()).collect();
        let probe = layers::probe(
            &ProbeInput {
                fields: &setup.fields,
                profile: DeviceProfile::intel_x5660(),
                oracles: &oracles,
            },
            5,
            &mut check,
            &mut layers,
        );
        // This workload's own strategy, not the probe's fusion.
        let own = tracer.snapshot();
        for case in &setup.cases {
            let name = output_name(case.workload);
            layers.set(
                &format!("core.derive_ms.{name}"),
                median(&layers::span_ms(&own, &format!("core.derive.{name}"))),
            );
        }
        let rows: Vec<_> = setup.cases.iter().map(|c| c.sig.table2).collect();
        layers::set_table2(&mut layers, &rows);
        let peak = setup
            .cases
            .iter()
            .map(|c| c.sig.peak_mib())
            .fold(0.0, f64::max);
        layers.set("ocl.device_peak_mib", peak);
        layers::set_exec(&mut layers, exec0, exec1, rotations);
        Trace::merge([(0, own), (1, probe)])
    });
    let outcome = Outcome {
        check,
        end_to_end,
        per_layer: layers.into_metrics(),
        notes,
    };
    (outcome, trace)
}

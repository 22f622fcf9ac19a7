//! `serve_mixed`: an in-process `Server` with the default configuration,
//! driven closed-loop by two client connections. Four tenants in two
//! pairs; each pair shares one cubic grid, so identical requests can
//! coalesce, and each tenant keeps its grid for the whole run.

use std::time::Instant;

use dfg_core::{Engine, FieldSet, Workload};
use dfg_mesh::{RectilinearMesh, RtWorkload};
use dfg_ocl::DeviceProfile;
use dfg_serve::{
    verify_payload, Client, DeriveReply, DeriveRequest, ExecStrategy, Request, Response,
    ServeConfig, Server,
};
use dfg_trace::{span, Trace, Tracer};

use crate::layers::{self, Layers, ProbeInput};
use crate::oracle::{check_close, check_sum, reference, GenExpr, LEAVES};
use crate::report::{Checker, Outcome};
use crate::stats::{median, summarize, Rng};
use crate::{end_to_end, set_up, Args};

const CONNECTIONS: usize = 2;
/// Tenants driven by each connection: one from each grid pair.
const TENANTS: [[(&str, usize); 2]; CONNECTIONS] = [[("a0", 0), ("b0", 1)], [("a1", 0), ("b1", 1)]];
/// Cube sides of the two pairs' grids. They are fixed, so that every seed
/// measures the same amount of work; the seed decides which pair gets
/// which grid and draws every request.
const GRID_SIDES: [usize; 2] = [32, 48];
/// Replies per kind kept from the traced run for the codec timings.
const CAPTURE: usize = 8;

/// One tenant pair's mesh, the fields the server derives from (the
/// synthetic RT velocity on the unit cube), and the paper expressions'
/// reference outputs on it.
struct Grid {
    dims: [usize; 3],
    fields: FieldSet,
    paper: Vec<Vec<f32>>,
}

impl Grid {
    fn new(side: usize, engine: &mut Engine) -> Grid {
        let dims = [side; 3];
        let fields = FieldSet::for_rt_mesh(
            &RectilinearMesh::unit_cube(dims),
            &RtWorkload::paper_default(),
        );
        let paper = Workload::ALL
            .iter()
            .map(|&w| reference(engine, w, &fields))
            .collect();
        Grid {
            dims,
            fields,
            paper,
        }
    }

    fn leaves(&self) -> [&[f32]; 6] {
        LEAVES.map(|name| {
            self.fields
                .get(name)
                .and_then(|f| f.data.as_deref())
                .expect("grid carries every leaf field")
        })
    }
}

struct Setup {
    server: Server,
    addr: String,
    grids: Vec<Grid>,
}

impl Setup {
    fn new(seed: u64, check: &mut Checker) -> Setup {
        let mut sides = GRID_SIDES;
        if Rng::new(seed).chance(0.5) {
            sides.reverse();
        }
        let mut engine = Engine::new(DeviceProfile::intel_x5660());
        let grids: Vec<Grid> = sides
            .iter()
            .map(|&side| Grid::new(side, &mut engine))
            .collect();
        let server = Server::start("127.0.0.1:0", ServeConfig::default()).expect("start server");
        let addr = server.local_addr().to_string();
        // Warm-up: every tenant derives every paper expression once, which
        // builds the server's fields per grid and fills its caches.
        let mut client = Client::connect(&addr).expect("connect");
        for tenants in TENANTS {
            for (tenant, g) in tenants {
                for (i, w) in Workload::ALL.into_iter().enumerate() {
                    let req = derive_request(tenant, w.source(), grids[g].dims, true);
                    let verdict = client
                        .request(req)
                        .map_err(|e| e.to_string())
                        .and_then(|r| {
                            verify_reply(r, tenant, w.source(), &grids[g], true, &grids[g].paper[i])
                        });
                    check.record("warm-up request", verdict);
                }
            }
        }
        Setup {
            server,
            addr,
            grids,
        }
    }

    fn stop(self) {
        let mut client = Client::connect(&self.addr).expect("connect");
        client.shutdown().expect("server acknowledges shutdown");
        drop(client);
        self.server.join().expect("server threads exit cleanly");
    }

    /// Session counters summed over tenants: uploads skipped, pool hits,
    /// codegen cache hits.
    fn session_counters(&self) -> [u64; 3] {
        let mut client = Client::connect(&self.addr).expect("connect");
        match client.stats().expect("stats") {
            Response::Stats { tenants, .. } => tenants.iter().fold([0; 3], |acc, t| {
                [
                    acc[0] + t.session.uploads_skipped,
                    acc[1] + t.pool_hits,
                    acc[2] + t.session.codegen_cached,
                ]
            }),
            _ => unreachable!("Client::stats returns a stats reply"),
        }
    }
}

fn derive_request(tenant: &str, expr: &str, grid: [usize; 3], data: bool) -> Request {
    Request::Derive(DeriveRequest {
        id: 0,
        tenant: tenant.to_string(),
        expr: expr.to_string(),
        grid,
        strategy: ExecStrategy::Fusion,
        data,
        deadline_ms: None,
    })
}

/// Oracle check of one reply: payload checksum, tenant and expression
/// echo, cell count, then the values (or their sum) against `want`.
fn verify_reply(
    resp: Response,
    tenant: &str,
    expr: &str,
    grid: &Grid,
    data: bool,
    want: &[f32],
) -> Result<DeriveReply, String> {
    let reply = match resp {
        Response::Ok(reply) => reply,
        other => {
            let mut text = format!("{other:?}");
            text.truncate(200);
            return Err(text);
        }
    };
    verify_payload(&reply).map_err(|e| e.to_string())?;
    if reply.tenant != tenant || reply.expr != expr {
        return Err(format!(
            "echo {}/{:?} for {tenant}",
            reply.tenant, reply.expr
        ));
    }
    if reply.ncells as usize != grid.fields.ncells() {
        return Err(format!(
            "{} cells, grid has {}",
            reply.ncells,
            grid.fields.ncells()
        ));
    }
    match (&reply.data_bits, data) {
        (Some(bits), true) => {
            let values: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
            check_close(&values, want)?;
        }
        (None, false) => check_sum(reply.checksum, want)?,
        _ => {
            return Err(format!(
                "data {} requested {data}",
                reply.data_bits.is_some()
            ))
        }
    }
    Ok(reply)
}

/// One reply as seen by the client, with its request class.
struct Sample {
    rtt_ms: f64,
    generated: bool,
    data: bool,
    reply: Option<DeriveReply>,
}

#[derive(Default)]
struct ConnRun {
    check: Checker,
    samples: Vec<Sample>,
    /// Raw replies with and without field data, for the codec timings.
    data_replies: Vec<Response>,
    meta_replies: Vec<Response>,
    /// Generated expression sources, for the compile-path timings.
    generated: Vec<String>,
}

/// The request mix, drawn in blocks so every run sends the same blend:
/// each block of eight holds every combination of the connection's two
/// tenants, paper or generated expression, and with or without field
/// data, in seeded order. Paper requests rotate through the three
/// expressions; generated ones draw 10–300 terms, one draw per quarter of
/// that range in turn.
struct Mix {
    rng: Rng,
    block: Vec<(usize, bool, bool)>,
    paper: usize,
    generated: usize,
}

impl Mix {
    fn new(rng: Rng) -> Self {
        Mix {
            rng,
            block: Vec::new(),
            paper: 0,
            generated: 0,
        }
    }

    /// Next request: tenant index, expression (paper index or generated
    /// tree) and whether to return the field.
    fn next(&mut self) -> (usize, Result<GenExpr, usize>, bool) {
        if self.block.is_empty() {
            for i in 0..8 {
                self.block.push((i & 1, i & 2 != 0, i & 4 != 0));
            }
            for i in (1..self.block.len()).rev() {
                let j = self.rng.range(0, i);
                self.block.swap(i, j);
            }
        }
        let (tenant, generated, data) = self.block.pop().expect("block refilled above");
        let expr = if generated {
            let quarter = self.generated % 4;
            self.generated += 1;
            let lo = 10 + quarter * 291 / 4;
            let hi = 10 + (quarter + 1) * 291 / 4 - 1;
            let terms = self.rng.range(lo, hi);
            Ok(GenExpr::generate(&mut self.rng, terms))
        } else {
            self.paper += 1;
            Err(self.paper % 3)
        };
        (tenant, expr, data)
    }
}

/// Closed loop on one connection until `seconds` have passed.
fn drive(
    conn: usize,
    setup: &Setup,
    mix: &mut Mix,
    seconds: f64,
    tracer: Option<&Tracer>,
    capture: bool,
) -> ConnRun {
    let mut client = Client::connect(&setup.addr).expect("connect");
    let mut run = ConnRun::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let (t, generated, data) = mix.next();
        let (tenant, g) = TENANTS[conn][t];
        let grid = &setup.grids[g];
        let expr = match &generated {
            Ok(g) => g.source.clone(),
            Err(w) => Workload::ALL[*w].source().to_string(),
        };
        let t = Instant::now();
        let resp = {
            let _s = span!(tracer, "serve.request");
            client.request(derive_request(tenant, &expr, grid.dims, data))
        };
        let rtt_ms = t.elapsed().as_secs_f64() * 1e3;
        if capture {
            if let Ok(r @ Response::Ok(_)) = &resp {
                let kept = if data {
                    &mut run.data_replies
                } else {
                    &mut run.meta_replies
                };
                if kept.len() < CAPTURE {
                    kept.push(r.clone());
                }
            }
            if generated.is_ok() && run.generated.len() < 32 {
                run.generated.push(expr.clone());
            }
        }
        let want = match &generated {
            Ok(g) => g.eval(&grid.leaves()),
            Err(w) => grid.paper[*w].clone(),
        };
        let verdict = resp
            .map_err(|e| e.to_string())
            .and_then(|r| verify_reply(r, tenant, &expr, grid, data, &want));
        let what = match &generated {
            Ok(g) => format!("{tenant} generated {} terms", g.terms),
            Err(w) => format!("{tenant} {}", Workload::ALL[*w].table2_name()),
        };
        let reply = run.check.record(&what, verdict);
        run.samples.push(Sample {
            rtt_ms,
            generated: generated.is_ok(),
            data,
            reply,
        });
    }
    run
}

/// Both connections, concurrently, for `seconds`; returns their runs and
/// the window's wall time.
fn measure(
    setup: &Setup,
    mixes: &mut [Mix],
    seconds: f64,
    tracers: Option<&[Tracer]>,
) -> (Vec<ConnRun>, f64) {
    let start = Instant::now();
    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = mixes
            .iter_mut()
            .enumerate()
            .map(|(conn, mix)| {
                let tracer = tracers.map(|t| &t[conn]);
                scope.spawn(move || drive(conn, setup, mix, seconds, tracer, tracer.is_some()))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread completes"))
            .collect::<Vec<_>>()
    });
    (runs, start.elapsed().as_secs_f64())
}

/// Median microseconds to encode and to decode each captured reply.
fn codec_us(replies: &[Response]) -> (f64, f64) {
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    for r in replies {
        for _ in 0..5 {
            let t = Instant::now();
            let line = std::hint::black_box(r.to_json_line());
            encode.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let parsed = Response::parse(line.trim()).expect("captured reply decodes");
            decode.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(parsed);
        }
    }
    (median(&encode), median(&decode))
}

pub fn run(args: &Args) -> (Outcome, Option<Trace>) {
    let mut check = Checker::default();
    let (setup, setup_s) = set_up(|| Setup::new(args.seed, &mut check), Setup::stop);
    let mut mixes: Vec<Mix> = (0..CONNECTIONS as u64)
        .map(|c| {
            Mix::new(Rng::new(
                args.seed ^ (c + 1).wrapping_mul(0xA076_1D64_78BD_642F),
            ))
        })
        .collect();

    let untraced = args.untraced_seconds();
    let exec0 = dfg_exec::global().stats();
    let session0 = setup.session_counters();
    let (runs, window) = measure(&setup, &mut mixes, untraced, None);
    let exec1 = dfg_exec::global().stats();
    let session1 = setup.session_counters();
    let samples: Vec<&Sample> = runs.iter().flat_map(|r| &r.samples).collect();
    let replies: Vec<&DeriveReply> = samples.iter().filter_map(|s| s.reply.as_ref()).collect();
    let rtt: Vec<f64> = samples.iter().map(|s| s.rtt_ms).collect();
    let cells: u64 = replies.iter().map(|r| r.ncells).sum();
    let requests = samples.len() as f64;
    let end_to_end = end_to_end(
        &setup_s,
        cells as f64 / window,
        &rtt,
        replies.len() as f64 / window,
    );
    let mut notes = vec![format!(
        "{} requests over {CONNECTIONS} connections in {window:.3} s; grids {:?} and {:?}",
        samples.len(),
        setup.grids[0].dims,
        setup.grids[1].dims
    )];
    for generated in [false, true] {
        for data in [false, true] {
            let class: Vec<f64> = samples
                .iter()
                .filter(|s| s.generated == generated && s.data == data)
                .map(|s| s.rtt_ms)
                .collect();
            let s = summarize(&class);
            notes.push(format!(
                "{} {}: n {} rtt median {:.3} ms q1 {:.3} q3 {:.3}",
                if generated { "generated" } else { "paper" },
                if data { "with data" } else { "checksum only" },
                s.n,
                s.median,
                s.q1,
                s.q3
            ));
        }
    }

    let mut layers = Layers::default();
    let n = replies.len() as f64;
    let trace = args.trace.then(|| {
        layers.set(
            "serve.compiles_per_request",
            replies.iter().map(|r| r.compiles).sum::<u64>() as f64 / n,
        );
        layers.set(
            "serve.coalesced_frac",
            replies.iter().filter(|r| r.coalesced).count() as f64 / n,
        );
        let exec_ms: Vec<f64> = replies.iter().map(|r| r.wall_ms).collect();
        layers.set("serve.exec_ms", median(&exec_ms));
        let overhead: Vec<f64> = samples
            .iter()
            .filter_map(|s| s.reply.as_ref().map(|r| s.rtt_ms - r.wall_ms))
            .collect();
        layers.set("serve.overhead_ms", median(&overhead));
        let per_request = |i: usize| (session1[i] - session0[i]) as f64 / requests;
        layers.set("core.session.uploads_skipped", per_request(0));
        layers.set("core.session.pool_hits", per_request(1));
        layers.set("core.session.codegen_cached", per_request(2));
        layers::set_exec(&mut layers, exec0, exec1, requests);

        let tracers = [Tracer::new(), Tracer::new()];
        let (traced, _) = measure(&setup, &mut mixes, args.seconds - untraced, Some(&tracers));
        let traced_rtt: Vec<f64> = traced
            .iter()
            .flat_map(|r| &r.samples)
            .map(|s| s.rtt_ms)
            .collect();
        layers::set_trace_overhead(&mut layers, &rtt, &traced_rtt);
        let data: Vec<Response> = traced.iter().flat_map(|r| r.data_replies.clone()).collect();
        let meta: Vec<Response> = traced.iter().flat_map(|r| r.meta_replies.clone()).collect();
        let (enc, dec) = codec_us(&data);
        layers.set("serve.encode_us.data", enc);
        layers.set("serve.decode_us.data", dec);
        let (enc, dec) = codec_us(&meta);
        layers.set("serve.encode_us.meta", enc);
        layers.set("serve.decode_us.meta", dec);

        let probe = layers::probe(
            &ProbeInput {
                fields: &setup.grids[0].fields,
                profile: DeviceProfile::intel_x5660(),
                oracles: &setup.grids[0].paper,
            },
            5,
            &mut check,
            &mut layers,
        );
        // The compile path as the generated requests exercise it.
        let generated: Vec<String> = traced.iter().flat_map(|r| r.generated.clone()).collect();
        let compile = Tracer::new();
        for source in &generated {
            let verdict = layers::compile_pipeline(&compile, source);
            check.record("decomposed compile of a generated expression", verdict);
        }
        let compile = compile.snapshot();
        layers::set_compile_metrics(&mut layers, &compile);
        let filters: usize = generated.iter().map(|s| layers::filters(s, &["g"])).sum();
        layers.set(
            "dataflow.filters",
            filters as f64 / generated.len().max(1) as f64,
        );
        for r in traced {
            check.absorb(r.check);
        }
        let mut parts = vec![(2, probe), (3, compile)];
        for (i, t) in tracers.iter().enumerate() {
            parts.push((i as u64, t.snapshot()));
        }
        Trace::merge(parts)
    });
    for r in runs {
        check.absorb(r.check);
    }
    setup.stop();
    let outcome = Outcome {
        check,
        end_to_end,
        per_layer: layers.into_metrics(),
        notes,
    };
    (outcome, trace)
}

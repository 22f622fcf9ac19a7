//! The three execution strategies of §III-C.
//!
//! Each executor drives the *same* dataflow schedule and the *same*
//! primitive kernel library through a different data-movement protocol:
//!
//! | strategy  | kernels                     | intermediates     | transfers |
//! |-----------|-----------------------------|-------------------|-----------|
//! | roundtrip | one per filter              | host memory       | per-port upload, per-kernel download |
//! | staged    | one per filter (+decompose, +const fill) | device global memory (ref-counted) | inputs once, result once |
//! | fusion    | one fused kernel            | device registers  | inputs once, result once |
//!
//! The executors' buffer allocation orders intentionally mirror
//! `dfg_dataflow::memreq`'s analytical simulation so that measured
//! high-water marks and predicted requirements agree exactly.
//!
//! Each module exposes one `pub(crate) fn run(..)` taking the engine's
//! `Request`; `recovery::execute_level` is the only caller.

pub(crate) mod fusion;
pub(crate) mod roundtrip;
pub(crate) mod staged;
pub(crate) mod streamed;

pub use streamed::StreamReport;
pub(crate) use streamed::StreamRetry;

use dfg_dataflow::{NodeId, Width};
use dfg_kernels::{fuse_roots, FusedProgram};
use dfg_ocl::{BufferId, Context, Download, ExecMode, OclError, QueueId, Upload};

use crate::engine::Request;
use crate::error::EngineError;
use crate::fields::{FieldSet, FieldValue};
use crate::session::{program_key, CachedProgram, SessionState};

/// Lanes a buffer of `width` occupies for `ncells` elements.
pub(crate) fn lanes_for(width: Width, ncells: usize) -> usize {
    match width {
        Width::Scalar => ncells,
        Width::Vec4 => 4 * ncells,
        Width::Small => 3,
    }
}

/// Validate that a host field exists, has the declared width, and (in real
/// mode) carries data of the right length.
pub(crate) fn check_field<'a>(
    fields: &'a FieldSet,
    name: &str,
    expect_small: bool,
    mode: ExecMode,
) -> Result<&'a FieldValue, EngineError> {
    let fv = fields.get(name).ok_or_else(|| EngineError::MissingField {
        name: name.to_string(),
    })?;
    let is_small = fv.width == Width::Small;
    if is_small != expect_small {
        return Err(EngineError::ModeMismatch {
            detail: format!(
                "field `{name}` width {:?} does not match its use ({})",
                fv.width,
                if expect_small {
                    "small"
                } else {
                    "problem-sized"
                }
            ),
        });
    }
    match (&fv.data, mode) {
        (None, ExecMode::Real) => Err(EngineError::ModeMismatch {
            detail: format!("field `{name}` is virtual but the engine is in real mode"),
        }),
        (Some(data), _) => {
            let expected = if expect_small { 3 } else { fields.ncells() };
            if data.len() != expected {
                return Err(EngineError::FieldSize {
                    name: name.to_string(),
                    expected,
                    found: data.len(),
                });
            }
            Ok(fv)
        }
        (None, ExecMode::Model) => Ok(fv),
    }
}

/// Upload one named input field: through the session's generation-checked
/// resident buffers when present, otherwise as a one-shot create + write
/// whose buffer the caller releases.
pub(crate) fn upload_field(
    fields: &FieldSet,
    ctx: &mut Context,
    name: &str,
    small: bool,
    session: Option<&mut SessionState>,
) -> Result<BufferId, EngineError> {
    if let Some(state) = session {
        return state.bind_input(ctx, fields, name, small);
    }
    let fv = check_field(fields, name, small, ctx.mode())?;
    let lanes = lanes_for(fv.width, fields.ncells());
    let buf = ctx.create_buffer(lanes)?;
    write_field(ctx, buf, fv, lanes)?;
    Ok(buf)
}

/// Write host field `fv` into the `lanes`-lane buffer `buf` on the default
/// queue: its data, or a virtual write of the same size when the field is
/// a model-mode placeholder.
pub(crate) fn write_field(
    ctx: &mut Context,
    buf: BufferId,
    fv: &FieldValue,
    lanes: usize,
) -> Result<(), OclError> {
    let src = fv
        .data
        .as_deref()
        .map_or(Upload::Virtual(lanes), Upload::Data);
    ctx.write(QueueId::DEFAULT, buf, src, &[])?;
    Ok(())
}

/// Read the `lanes`-lane buffer `buf` back on the default queue: into a
/// new vector in real mode, as a virtual read of the same size in model
/// mode (`None`).
pub(crate) fn download(
    ctx: &mut Context,
    buf: BufferId,
    lanes: usize,
) -> Result<Option<Vec<f32>>, OclError> {
    let mut data = (ctx.mode() == ExecMode::Real).then(Vec::new);
    let dst = data
        .as_mut()
        .map_or(Download::Virtual(lanes), Download::Append);
    ctx.read(QueueId::DEFAULT, buf, 0, dst, &[])?;
    Ok(data)
}

/// The fused program computing `roots`, and its generated source.
///
/// With a session the program comes from the session's kernel cache (a
/// `codegen.cached` span); a miss — and every one-shot run — generates it
/// under a `fusion.codegen` (or `streamed.codegen`) span, records one
/// compile event, and caches it. The streamed variant is cached under its
/// own key and kernel name.
pub(crate) fn cached_program(
    req: &Request<'_>,
    roots: &[NodeId],
    streamed: bool,
    ctx: &mut Context,
    mut session: Option<&mut SessionState>,
) -> Result<(FusedProgram, String), EngineError> {
    let label = req.label();
    let tracer = ctx.tracer().cloned();
    let key = program_key(req.spec, roots, streamed);
    if let Some(state) = session.as_deref_mut() {
        if let Some(cached) = state.programs.get(&key) {
            let hit = (cached.program.clone(), cached.source.clone());
            state.stats.codegen_cached += 1;
            drop(dfg_trace::span!(tracer, "codegen.cached", label = label));
            return Ok(hit);
        }
    }
    let (strategy, kernel_name) = if streamed {
        ("streamed", format!("fused_{label}_streamed"))
    } else {
        ("fusion", format!("fused_{label}"))
    };
    let program = {
        let _codegen = dfg_trace::span!(tracer, &format!("{strategy}.codegen"), label = label);
        let program = fuse_roots(req.spec, roots)?;
        ctx.record_compile(&kernel_name)?;
        program
    };
    let source = program.generated_source(&kernel_name);
    if let Some(state) = session {
        state.stats.codegen_compiles += 1;
        state.programs.insert(
            key,
            CachedProgram {
                program: program.clone(),
                source: source.clone(),
            },
        );
    }
    Ok((program, source))
}

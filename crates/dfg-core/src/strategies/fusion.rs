//! The *fusion* execution strategy (§III-C.3).
//!
//! The dynamic kernel generator (`dfg_kernels::fuse`) compiles the whole
//! network into one kernel; each distinct input field is uploaded once, a
//! single kernel launch computes the derived field with intermediates in
//! registers, and one download returns the result.

use dfg_dataflow::Width;
use dfg_kernels::FusedKernel;
use dfg_ocl::Context;

use crate::engine::Request;
use crate::error::EngineError;
use crate::fields::Field;
use crate::session::SessionState;
use crate::strategies::{cached_program, download, upload_field};

/// Execute the request with the fusion strategy: one generated kernel
/// computes every root, writing an interleaved output buffer that is
/// de-interleaved host-side after the single download. Returns one field
/// per root in real mode (`None` in model mode) plus the generated source.
///
/// With session state, codegen is served from the session's kernel cache,
/// input uploads go through its generation-checked resident buffers (which
/// are *not* released here), and only transients are drained.
pub(crate) fn run(
    req: &Request<'_>,
    ctx: &mut Context,
    mut session: Option<&mut SessionState>,
) -> Result<(Option<Vec<Field>>, String), EngineError> {
    let fields = req.fields;
    let label = req.label();
    let n = fields.ncells();
    let tracer = ctx.tracer().cloned();
    let (program, source) = cached_program(req, req.roots, false, ctx, session.as_deref_mut())?;

    let mut bufs = Vec::with_capacity(program.inputs.len());
    // Buffers this call created and must release (with a session, resident
    // inputs are owned by the session and stay on the device).
    let mut owned = Vec::new();
    {
        let _upload = dfg_trace::span!(tracer, "fusion.upload", inputs = program.inputs.len());
        for slot in &program.inputs {
            let buf = upload_field(fields, ctx, &slot.name, slot.small, session.as_deref_mut())?;
            if session.is_none() {
                owned.push(buf);
            }
            bufs.push(buf);
        }
    }
    let lanes_per_elem = program.lanes_per_elem;
    let out = ctx.create_buffer(lanes_per_elem * n)?;
    let outputs_meta: Vec<(Width, usize)> = program
        .outputs
        .iter()
        .map(|o| (o.width, o.lane_offset))
        .collect();
    let kernel = FusedKernel::new(program, label);
    {
        let _kernel = dfg_trace::span!(tracer, "fusion.kernel", label = label);
        ctx.launch(&kernel, &bufs, out, n)?;
    }

    let _download = dfg_trace::span!(tracer, "fusion.download");
    let fields_out = download(ctx, out, lanes_per_elem * n)?.map(|interleaved| {
        let mut result = Vec::with_capacity(outputs_meta.len());
        for &(width, lane_offset) in &outputs_meta {
            let w = match width {
                Width::Vec4 => 4,
                _ => 1,
            };
            let mut data = Vec::with_capacity(w * n);
            for i in 0..n {
                let base = i * lanes_per_elem + lane_offset;
                data.extend_from_slice(&interleaved[base..base + w]);
            }
            result.push(Field {
                width,
                ncells: n,
                data,
            });
        }
        result
    });
    for buf in owned {
        ctx.release(buf)?;
    }
    ctx.release(out)?;
    Ok((fields_out, source))
}

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

use dfg_dataflow::Width;
use dfg_ocl::ExecMode;

use crate::error::EngineError;
use crate::fields::{FieldSet, FieldValue};

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

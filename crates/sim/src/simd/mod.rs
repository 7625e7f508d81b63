//! The edit-distance kernel tier.
//!
//! There is one tier, the portable scalar one in [`generic`]: Myers'
//! bit-parallel Levenshtein for ASCII patterns of at most 64 bytes, used
//! by [`crate::levenshtein`] whenever the shorter side fits one machine
//! word. Everything else takes the two-row DP in [`crate::edit`]. Both
//! compute exact integers, so every derived `f64` similarity is the same
//! on every machine.
//!
//! [`active_name`] stays because benchmark run records carry the kernel
//! tier they were measured under; it always names this scalar tier.

pub mod generic;

/// Name of the kernel tier that computes edit distances, for run records
/// and diagnostics. Always `"generic"`: there is no runtime dispatch.
pub fn active_name() -> &'static str {
    "generic"
}

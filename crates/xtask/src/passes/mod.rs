//! The static-analysis passes.

pub mod alloc_hygiene;
pub mod codec_cov;
pub mod panic_free;
pub mod queue_growth;
pub mod symmetry;
pub mod units;
pub mod wire;

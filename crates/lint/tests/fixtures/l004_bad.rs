//! Known-bad L004 fixture: stream ids declared outside the registry.

pub const ALPHA_STREAM: u64 = 0x0000_0001;
const BETA_FAMILY: u64 = 0x0000_0002;
pub const DEFAULT_SEED: u64 = 42;
pub(crate) const GAMMA_STREAM: u64 = base_value();

pub fn local() -> u64 {
    const DELTA_FAMILY: u64 = 7;
    DELTA_FAMILY
}

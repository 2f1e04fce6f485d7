//! Known-good L004 fixture: the registry form, and the text of an id
//! declaration where it declares nothing (`const ALPHA_STREAM: u64`).

macro_rules! stream_ids {
    ($($(#[$doc:meta])* $name:ident = $id:literal;)*) => {
        $($(#[$doc])* pub const $name: u64 = $id;)*
    };
}

stream_ids! {
    /// Doc text: const ALPHA_STREAM: u64 = 1;
    ALPHA_STREAM = 0x0000_0001;
    BETA_FAMILY = 0x0000_0002;
}

pub const MAX_STREAMS: usize = 8;

// const GAMMA_STREAM: u64 = 3;
pub fn banner() -> &'static str {
    "const DELTA_FAMILY: u64 = 4;"
}

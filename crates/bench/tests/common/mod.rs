//! What the tests that run the `exp_*` binaries share.

use std::path::{Path, PathBuf};

/// An experiment binary of the build this test is part of (debug under
/// `cargo test`, release under `cargo test --release`).
pub fn exp_bin(name: &str) -> PathBuf {
    Path::new(env!("CARGO_BIN_EXE_exp_fig9")).with_file_name(name)
}

/// `target/tmp/<name>`, emptied. It outlives the test, so a failed run's
/// files can be read.
pub fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear the scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create the scratch dir");
    dir
}

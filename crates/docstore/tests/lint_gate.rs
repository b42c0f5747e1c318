//! In-crate lint gate: `cargo test` on this serving crate runs the same
//! static-analysis pass as `cargo run -p eq_lint -- --deny-warnings`, so a
//! violation of the panic/lock/hot-path/wire/golden invariants fails this
//! crate's own test suite — not just a CI job someone has to remember.

use std::path::Path;

#[test]
fn workspace_lint_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = eq_lint::run_workspace(&root).expect("lint pass runs without I/O errors");
    assert!(report.is_clean(true), "eq_lint found problems:\n{}", report.render());
}

//! The paper's figures and derived experiments (the e1–e11 table in
//! `README.md`) as declarative campaigns, plus the golden-export machinery
//! that pins each figure's CSV.
//!
//! Every simulation-backed figure is a scenario `Matrix` defined in
//! [`figures`] and resolved through the content-addressed result store, so
//! a warm store re-exports identical bytes without re-simulating. The
//! analytic figures (e5, e6) and the cycle-level cross-validation (e7) are
//! pure functions and need no store. The `sweep --figures` CLI renders the
//! gallery; the exports are pinned byte for byte against `golden/` by
//! `tests/paper_figures.rs` and the CI `paper-figures` job, which also
//! checks the paper's claims against the checked-in goldens.

pub mod figures;

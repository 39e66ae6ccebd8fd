//! Loop-nest code generation from polyhedra — polymem's CLooG.
//!
//! The paper uses CLooG to (a) find the per-dimension bound
//! expressions of convex data-space unions and (b) emit loop nests
//! that scan unions of data spaces so every element is loaded/stored
//! exactly once. This crate reproduces both roles:
//!
//! * [`scan::scan_polyhedron`] / [`scan::scan_union`] build a loop
//!   [`ast::Ast`] whose bounds are `max`/`min` lists of affine forms
//!   derived by Fourier–Motzkin (outer dims as context);
//! * union scanning first makes the pieces **disjoint** (polyhedral
//!   difference), so the emitted nests have the paper's
//!   single-load/store property even for overlapping references —
//!   exactly the shape of Fig. 1's two move-in nests for array `A`;
//! * the AST can be **pretty-printed** as C-like text (for inspection,
//!   docs and golden tests) and **interpreted** (`for_each_point`),
//!   which is how the machine simulator executes generated data
//!   movement code.

pub mod ast;
pub mod scan;

pub use ast::{Ast, LoopBounds};
pub use scan::{scan_pieces, scan_polyhedron, scan_union};

/// Errors from code generation.
pub type CodegenError = polymem_poly::PolyError;

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, CodegenError>;

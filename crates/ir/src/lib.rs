//! Affine program IR for the polymem framework.
//!
//! A [`program::Program`] is the paper's "program block": a
//! set of statements with affine iteration domains
//! ([`Polyhedron`](polymem_poly::Polyhedron)) and affine array access
//! functions ([`AffineMap`](polymem_poly::AffineMap)), plus arithmetic
//! statement bodies ([`expr::Expr`]) so programs can actually be
//! *executed* — polymem validates every transformation by running the
//! original and transformed programs and comparing array contents.
//!
//! Values are `i64`: integer arithmetic is associative, so instance
//! reordering introduced by tiling cannot change results, making
//! bit-exact equivalence checks meaningful.
//!
//! * [`expr`] — linear expression builder (for constraints/accesses)
//!   and the arithmetic expression tree of statement bodies;
//! * [`program`] — arrays, statements, programs;
//! * [`builder`] — ergonomic construction of affine loop nests;
//! * [`exec`] — the reference sequential interpreter (source order);
//! * [`bytecode`] — flat stack-machine lowering of statement bodies
//!   for the compiled block execution engine.

pub mod builder;
pub mod bytecode;
pub mod exec;
pub mod expr;
pub mod gen;
pub mod parse;
pub mod program;

pub use builder::{DomainBuilder, ProgramBuilder};
pub use bytecode::{BodyCode, ByteOp};
pub use exec::{exec_program, exec_statement_instance, ArrayStore};
pub use expr::{Expr, LinExpr};
pub use gen::{init_random_store, random_program};
pub use parse::parse_program;
pub use program::{Access, ArrayDecl, Program, Statement};

use std::fmt;

/// Errors surfaced while building or executing IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// A polyhedral operation failed.
    Poly(polymem_poly::PolyError),
    /// Reference to an unknown array name.
    UnknownArray(String),
    /// Reference to an unknown dimension/parameter name.
    UnknownName(String),
    /// Malformed `.poly` source text.
    Parse {
        /// 1-based source line.
        line: usize,
        /// What the parser expected or rejected.
        msg: String,
    },
    /// A name declared twice where it must be unique: a parameter, an
    /// array, a statement, or a loop iterator within one statement.
    Duplicate {
        /// Which namespace: `"parameter"`, `"array"`, `"statement"` or
        /// `"iterator"`.
        kind: &'static str,
        /// The repeated name.
        name: String,
    },
    /// An array access evaluated outside the array's extents.
    OutOfBounds {
        /// Array being accessed.
        array: String,
        /// The offending index vector.
        index: Vec<i64>,
    },
    /// Statement body arithmetic failed (division by zero / overflow).
    Arithmetic(&'static str),
    /// An array whose element count overflows or cannot be allocated
    /// on the host.
    TooLarge {
        /// The array.
        array: String,
        /// Its extents at the requested parameters.
        extents: Vec<i64>,
    },
    /// Mismatched parameter count when executing.
    BadParams {
        /// Expected count.
        expected: usize,
        /// Provided count.
        got: usize,
    },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::Poly(e) => write!(f, "polyhedral error: {e}"),
            IrError::UnknownArray(a) => write!(f, "unknown array `{a}`"),
            IrError::UnknownName(n) => write!(f, "unknown name `{n}`"),
            IrError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            IrError::Duplicate { kind, name } => write!(f, "duplicate {kind} `{name}`"),
            IrError::OutOfBounds { array, index } => {
                write!(f, "access to `{array}` out of bounds at {index:?}")
            }
            IrError::Arithmetic(m) => write!(f, "arithmetic error: {m}"),
            IrError::TooLarge { array, extents } => {
                write!(
                    f,
                    "array `{array}` of extents {extents:?} exceeds host memory"
                )
            }
            IrError::BadParams { expected, got } => {
                write!(f, "expected {expected} parameter values, got {got}")
            }
        }
    }
}

impl std::error::Error for IrError {}

impl From<polymem_poly::PolyError> for IrError {
    fn from(e: polymem_poly::PolyError) -> Self {
        IrError::Poly(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, IrError>;

//! Front end for **njs**, the dynamically typed JavaScript subset used as
//! the vehicle language of this reproduction.
//!
//! njs keeps exactly the JavaScript features the paper's mechanism
//! interacts with: dynamically typed variables, object literals,
//! constructor functions with `this` and `new`, named properties, arrays
//! (elements arrays), SMI/double numbers, strings, and first-class
//! functions stored in properties. It deliberately omits features
//! orthogonal to the mechanism (closures over locals, prototype chains,
//! exceptions, getters/setters) — see DESIGN.md for the substitution
//! rationale.
//!
//! # Example
//!
//! ```
//! use checkelide_lang::parse_program;
//!
//! let program = parse_program(
//!     "function Point(x, y) { this.x = x; this.y = y; }
//!      var p = new Point(1, 2.5);
//!      p.x + p.y;",
//! )?;
//! assert_eq!(program.body.len(), 3);
//! # Ok::<(), checkelide_lang::ParseError>(())
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod token;

pub use ast::{BinOp, Expr, FuncDecl, LogOp, Program, Stmt, UnOp, UpdateOp};
pub use lexer::{LexError, Lexer};
pub use parser::{parse_program, ParseError, Parser};
pub use pretty::{node_count, normalize, print_expr, print_program};
pub use token::{Span, Token, TokenKind};

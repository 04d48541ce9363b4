//! The njs object model and heap — the V8-substrate of the reproduction.
//!
//! This crate provides everything below the execution tiers:
//!
//! * [`value::Value`] — V8-style tagged words (SMI with the payload in the
//!   high 32 bits and tag bit 0; pointers with tag bit 1).
//! * [`maps`] — hidden classes with transition trees, per-constructor
//!   initial maps and elements-kind transitions (§3.1).
//! * [`heap::Heap`] — a block allocator with **cache-line-aligned objects**
//!   (required by the mechanism, §4.2.1.3) and mark-sweep collection. The
//!   paper's object layout is implemented exactly: per-line header words
//!   carrying `(ClassID, Line)` in the top 16 bits, the elements pointer
//!   and length in words 2–3 of line 0, and up to seven properties per
//!   line.
//! * [`runtime::Runtime`] — the composed object operations: property
//!   transitions with V8-style slack tracking and (rare) relocation,
//!   elements loads/stores with kind transitions and growth, boxing,
//!   strings, oddballs.
//! * [`numops`] — JS numeric/comparison semantics, reporting which dynamic
//!   path each operation took (the type-feedback source).
//! * [`builtins`] — `Math.*`, string/array methods, `print`.
//!
//! # Example
//!
//! ```
//! use checkelide_runtime::{Runtime, Value};
//!
//! let mut rt = Runtime::new();
//! let root = rt.maps.new_constructor_root("Point");
//! let p = rt.alloc_object(root, 1);
//! let x = rt.names.intern("x");
//! let add = rt.add_property(p, x);
//! rt.store_slot(p, add.offset, Value::smi(7));
//! assert_eq!(rt.load_slot(p, add.offset).as_smi(), 7);
//! ```

#![forbid(unsafe_code)]

pub mod builtins;
pub mod heap;
pub mod maps;
pub mod names;
pub mod numops;
pub mod runtime;
pub mod strings;
pub mod value;

pub use builtins::{call_builtin, take_output, Builtin};
pub use heap::{Heap, HeapStats};
pub use maps::{ElemKind, Map, MapIx, MapKind, MapTable};
pub use names::{NameId, NameTable};
pub use numops::NumPath;
pub use runtime::{format_f64, AddProp, ElemLoad, ElemStore, FuncRef, Oddballs, Runtime, VKind};
pub use strings::{StrId, StringTable};
pub use value::Value;

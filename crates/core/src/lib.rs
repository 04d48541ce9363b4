//! The Class Cache mechanism — the paper's primary contribution (§4).
//!
//! A HW/SW hybrid structure that profiles, at hidden-class granularity,
//! which object **properties** and **elements arrays** are *monomorphic*
//! (always store values of one type), lets the optimizing compiler remove
//! the type checks guarding values loaded from them, and verifies the
//! speculation on every subsequent store:
//!
//! * [`ClassId`] — the 8-bit hardware class identifier (`0xFF` encodes SMI).
//! * [`ClassList`] — the in-memory software structure (§4.2.1.1): one entry
//!   per `(ClassID, Line)` pair with `InitMap`/`ValidMap`/`SpeculateMap`
//!   bitmaps, the profiled per-property ClassIDs (`Prop1..Prop7`) and the
//!   `FunctionList` of speculatively optimized functions.
//! * [`ClassCache`] — the hardware cache of the Class List (§4.2.1.3),
//!   128 entries, 2-way set associative, accessed in parallel with the DL1
//!   write on every `movStoreClassCache{,Array}` instruction.
//! * [`SpecialRegs`] — `regObjectClassId` and `regArrayObjectClassId0-3`,
//!   the special registers loaded by `movClassID` / `movClassIDArray`.
//! * [`protocol`] — the store-request protocol and the misspeculation
//!   exception delivered to the runtime, which then deoptimizes every
//!   function in the property's FunctionList.
//! * [`hwcost`] — the storage-cost model behind §5.4 (< 1.5 KB).
//!
//! # Example
//!
//! ```
//! use checkelide_core::{ClassCache, ClassList, ClassId, FuncId};
//! use checkelide_core::protocol::{StoreRequest, StoreOutcome};
//!
//! let mut list = ClassList::new();
//! let mut cache = ClassCache::with_default_config();
//! let holder = ClassId::new(3).unwrap();
//! let stored = ClassId::new(7).unwrap();
//!
//! // First store to (class 3, line 0, slot 1): profiles class 7.
//! let req = StoreRequest { holder, line: 0, pos: 1, stored };
//! assert_eq!(cache.store_request(&req, &mut list), StoreOutcome::Initialized);
//! // Same type again: still monomorphic.
//! assert_eq!(cache.store_request(&req, &mut list), StoreOutcome::Match);
//! assert_eq!(list.monomorphic_class(holder, 0, 1), Some(stored));
//!
//! // The compiler speculates on it...
//! list.speculate(holder, 0, 1, FuncId(42));
//! // ...and a store of a different type raises the HW exception.
//! let bad = StoreRequest { holder, line: 0, pos: 1, stored: ClassId::SMI };
//! match cache.store_request(&bad, &mut list) {
//!     StoreOutcome::Misspeculation(exc) => assert_eq!(exc.functions, vec![FuncId(42)]),
//!     other => panic!("expected misspeculation, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]

pub mod classcache;
pub mod classid;
pub mod classlist;
pub mod hwcost;
pub mod loadstats;
pub mod protocol;
pub mod regs;

pub use classcache::{ClassCache, ClassCacheConfig, ClassCacheStats};
pub use classid::{ClassId, ClassIdAllocator, FuncId};
pub use classlist::{ClassList, ClassListEntry, ELEMENTS_SLOT};
pub use loadstats::LoadAccessStats;
pub use protocol::{MisspeculationException, StoreOutcome, StoreRequest};
pub use regs::SpecialRegs;

//! The VM heap with a silent-corruption model.
//!
//! Real C buffer overruns do not fail fast: a store a few elements past an
//! allocation scribbles over allocator metadata or a neighbouring object,
//! and the program only dies later — if at all ("C programs can get
//! lucky", §3.3.3).  To reproduce the non-deterministic crash behaviour of
//! the `bc` case study, every allocation carries *slack* capacity beyond
//! its logical length:
//!
//! * stores within `[0, len)` are normal;
//! * stores within `[len, len + slack)` succeed silently but mark the
//!   block corrupted — the analogue of overwriting the next chunk's
//!   header;
//! * accesses outside the slack are an immediate [`CrashKind::SegFault`];
//! * `free` of a corrupted block is a [`CrashKind::HeapCorruption`] —
//!   the allocator noticing its trampled metadata, exactly how glibc's
//!   `free(): invalid next size` aborts manifest.
//!
//! Whether an overrun crashes therefore depends on whether the program
//! later frees (or reallocates over) the corrupted block — which depends on
//! the input, making the bug genuinely non-deterministic at the predicate
//! level.

use crate::outcome::CrashKind;
use crate::value::{PtrVal, Value};

/// Default slack capacity added to every allocation.
pub const DEFAULT_SLACK: usize = 16;

#[derive(Debug, Clone)]
struct HeapBlock {
    data: Vec<Value>,
    len: usize,
    freed: bool,
    corrupted: bool,
}

/// The MiniC heap.
#[derive(Debug, Clone, Default)]
pub struct Heap {
    blocks: Vec<HeapBlock>,
    slack: usize,
    live: usize,
}

impl Heap {
    /// Creates an empty heap with the default slack.
    pub fn new() -> Self {
        Heap::with_slack(DEFAULT_SLACK)
    }

    /// Creates an empty heap whose allocations carry `slack` extra cells.
    pub fn with_slack(slack: usize) -> Self {
        Heap {
            blocks: Vec::new(),
            slack,
            live: 0,
        }
    }

    /// Number of live (unfreed) allocations.
    pub fn live_blocks(&self) -> usize {
        self.live
    }

    /// Whether any live or freed block has corrupted slack.
    pub fn any_corruption(&self) -> bool {
        self.blocks.iter().any(|b| b.corrupted)
    }

    /// Allocates a zeroed block of `len` cells and returns a pointer to it.
    ///
    /// # Errors
    ///
    /// Returns [`CrashKind::TypeError`] for negative lengths.
    pub fn alloc(&mut self, len: i64) -> Result<Value, CrashKind> {
        if len < 0 {
            return Err(CrashKind::TypeError(
                format!("alloc with negative length {len}").into(),
            ));
        }
        let len = len as usize;
        let block = HeapBlock {
            data: vec![Value::Int(0); len + self.slack],
            len,
            freed: false,
            corrupted: false,
        };
        let id = self.blocks.len() as u32;
        self.blocks.push(block);
        self.live += 1;
        Ok(Value::Ptr(PtrVal {
            block: id,
            offset: 0,
        }))
    }

    fn block_of(&self, ptr: PtrVal) -> Result<&HeapBlock, CrashKind> {
        let b = self
            .blocks
            .get(ptr.block as usize)
            .ok_or(CrashKind::SegFault)?;
        if b.freed {
            Err(CrashKind::UseAfterFree)
        } else {
            Ok(b)
        }
    }

    /// The logical length of the pointed-to block (`len(p)` builtin).
    ///
    /// # Errors
    ///
    /// Returns a crash kind for freed or invalid blocks.
    pub fn len(&self, ptr: PtrVal) -> Result<i64, CrashKind> {
        Ok(self.block_of(ptr)?.len as i64)
    }

    /// Loads the cell at `ptr.offset + index`.
    ///
    /// Loads from the slack region return whatever was (possibly
    /// corruptly) stored there — heap garbage.
    ///
    /// # Errors
    ///
    /// Returns a crash kind for out-of-capacity, freed, or invalid access.
    pub fn load(&self, ptr: PtrVal, index: i64) -> Result<Value, CrashKind> {
        let b = self.block_of(ptr)?;
        let at = ptr.offset + index;
        if at < 0 || at as usize >= b.data.len() {
            return Err(CrashKind::SegFault);
        }
        Ok(b.data[at as usize])
    }

    /// Stores `value` at `ptr.offset + index`.
    ///
    /// Stores into the slack region succeed but mark the block corrupted.
    ///
    /// # Errors
    ///
    /// Returns a crash kind for out-of-capacity, freed, or invalid access.
    pub fn store(&mut self, ptr: PtrVal, index: i64, value: Value) -> Result<(), CrashKind> {
        let b = self
            .blocks
            .get_mut(ptr.block as usize)
            .ok_or(CrashKind::SegFault)?;
        if b.freed {
            return Err(CrashKind::UseAfterFree);
        }
        let at = ptr.offset + index;
        if at < 0 || at as usize >= b.data.len() {
            return Err(CrashKind::SegFault);
        }
        if at as usize >= b.len {
            // Silent overrun into the slack: the next chunk's metadata is
            // now trampled.  The crash, if any, comes later.
            b.corrupted = true;
        }
        b.data[at as usize] = value;
        Ok(())
    }

    /// Frees the block `ptr` points into.
    ///
    /// # Errors
    ///
    /// * [`CrashKind::HeapCorruption`] if the block's slack was overrun —
    ///   the allocator walks its (trampled) metadata and aborts;
    /// * [`CrashKind::DoubleFree`] if already freed;
    /// * [`CrashKind::SegFault`] for invalid blocks or interior pointers.
    pub fn free(&mut self, ptr: PtrVal) -> Result<(), CrashKind> {
        if ptr.offset != 0 {
            return Err(CrashKind::SegFault);
        }
        let b = self
            .blocks
            .get_mut(ptr.block as usize)
            .ok_or(CrashKind::SegFault)?;
        if b.freed {
            return Err(CrashKind::DoubleFree);
        }
        if b.corrupted {
            return Err(CrashKind::HeapCorruption);
        }
        b.freed = true;
        self.live -= 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ptr(v: Value) -> PtrVal {
        match v {
            Value::Ptr(p) => p,
            other => panic!("expected pointer, got {other}"),
        }
    }

    #[test]
    fn alloc_load_store_round_trip() {
        let mut h = Heap::new();
        let p = ptr(h.alloc(4).unwrap());
        h.store(p, 2, Value::Int(42)).unwrap();
        assert_eq!(h.load(p, 2).unwrap(), Value::Int(42));
        assert_eq!(h.load(p, 0).unwrap(), Value::Int(0));
        assert_eq!(h.len(p).unwrap(), 4);
    }

    #[test]
    fn offset_pointers_address_relative() {
        let mut h = Heap::new();
        let p = ptr(h.alloc(4).unwrap());
        let q = PtrVal {
            block: p.block,
            offset: 2,
        };
        h.store(q, 1, Value::Int(9)).unwrap();
        assert_eq!(h.load(p, 3).unwrap(), Value::Int(9));
    }

    #[test]
    fn overrun_into_slack_is_silent_but_corrupting() {
        let mut h = Heap::new();
        let p = ptr(h.alloc(4).unwrap());
        assert!(!h.any_corruption());
        h.store(p, 5, Value::Int(1)).unwrap(); // past len, inside slack
        assert!(h.any_corruption());
        // And the garbage can be read back.
        assert_eq!(h.load(p, 5).unwrap(), Value::Int(1));
    }

    #[test]
    fn far_overrun_segfaults_immediately() {
        let mut h = Heap::with_slack(4);
        let p = ptr(h.alloc(2).unwrap());
        assert_eq!(h.store(p, 100, Value::Int(1)), Err(CrashKind::SegFault));
        assert_eq!(h.load(p, -1), Err(CrashKind::SegFault));
    }

    #[test]
    fn freeing_corrupted_block_crashes() {
        let mut h = Heap::new();
        let p = ptr(h.alloc(4).unwrap());
        h.store(p, 4, Value::Int(7)).unwrap();
        assert_eq!(h.free(p), Err(CrashKind::HeapCorruption));
    }

    #[test]
    fn freeing_clean_block_succeeds_once() {
        let mut h = Heap::new();
        let p = ptr(h.alloc(4).unwrap());
        assert_eq!(h.live_blocks(), 1);
        h.free(p).unwrap();
        assert_eq!(h.live_blocks(), 0);
        assert_eq!(h.free(p), Err(CrashKind::DoubleFree));
    }

    #[test]
    fn use_after_free_detected() {
        let mut h = Heap::new();
        let p = ptr(h.alloc(4).unwrap());
        h.free(p).unwrap();
        assert_eq!(h.load(p, 0), Err(CrashKind::UseAfterFree));
        assert_eq!(h.store(p, 0, Value::Int(1)), Err(CrashKind::UseAfterFree));
        assert_eq!(h.len(p), Err(CrashKind::UseAfterFree));
    }

    #[test]
    fn interior_pointer_free_rejected() {
        let mut h = Heap::new();
        let p = ptr(h.alloc(4).unwrap());
        let q = PtrVal {
            block: p.block,
            offset: 1,
        };
        assert_eq!(h.free(q), Err(CrashKind::SegFault));
    }

    #[test]
    fn negative_alloc_rejected() {
        let mut h = Heap::new();
        assert!(matches!(h.alloc(-1), Err(CrashKind::TypeError(_))));
    }

    #[test]
    fn zero_length_alloc_is_fine() {
        let mut h = Heap::new();
        let p = ptr(h.alloc(0).unwrap());
        assert_eq!(h.len(p).unwrap(), 0);
        // Any in-slack store corrupts immediately (len == 0).
        h.store(p, 0, Value::Int(1)).unwrap();
        assert!(h.any_corruption());
    }
}

//! The benchmark binary's own global allocator: it forwards every call to the
//! system allocator and counts allocations and reallocations, process-wide
//! (for the closed-loop runs, whose worker thread allocates too) and per
//! thread (for the single-threaded traced run and for tests that run beside
//! other tests).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every `alloc`, `alloc_zeroed` and `realloc`; frees are not counted.
#[derive(Debug)]
pub struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A statistic that publishes no other data, so `Relaxed` suffices.
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: a thread being torn down may allocate after its locals are
    // gone; such allocations still count process-wide.
    let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// `GlobalAlloc` contract holds exactly as it does for `System`.  The counting
// itself touches only an atomic and a const-initialised, destructor-free
// thread-local `Cell`, neither of which allocates or unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (through this allocator)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `realloc`'s contract for `ptr`,
        // `layout` and `new_size`; the block came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations plus reallocations made by every thread of the process so far.
#[must_use]
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Allocations plus reallocations made by the calling thread so far.
#[must_use]
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisqplus_decoders::{Decoder, UnionFindDecoder};
    use nisqplus_qec::lattice::{Lattice, Sector};
    use nisqplus_qec::pauli::PauliString;
    use nisqplus_qec::syndrome::Syndrome;
    use std::hint::black_box;

    #[test]
    fn a_prepared_union_find_decode_loop_does_not_allocate() {
        let lattice = Lattice::new(5).unwrap();
        let mut decoder = UnionFindDecoder::new();
        decoder.prepare(&lattice);
        let mut syndrome = Syndrome::new(lattice.num_ancillas());
        syndrome.set(0, true);
        syndrome.set(3, true);
        let mut out = PauliString::identity(lattice.num_data());
        // One pass outside the count lets any lazily sized scratch settle.
        decoder.decode_into(&lattice, &syndrome, Sector::X, &mut out);
        let before = thread_allocations();
        for _ in 0..1000 {
            decoder.decode_into(&lattice, black_box(&syndrome), Sector::X, &mut out);
            decoder.decode_into(&lattice, black_box(&syndrome), Sector::Z, &mut out);
        }
        assert_eq!(thread_allocations() - before, 0);
    }

    #[test]
    fn a_call_known_to_allocate_is_counted() {
        let before_thread = thread_allocations();
        let before_process = allocations();
        let lattice = black_box(Lattice::new(3).unwrap());
        let error = black_box(PauliString::identity(lattice.num_data()));
        let syndrome = lattice.syndrome_of(&error);
        black_box(syndrome);
        assert!(thread_allocations() - before_thread >= 1);
        assert!(allocations() - before_process >= 1);
    }

    #[test]
    fn a_growing_vector_counts_its_reallocations() {
        let before = thread_allocations();
        let mut v: Vec<u64> = Vec::with_capacity(1);
        for i in 0..1000 {
            v.push(black_box(i));
        }
        black_box(&v);
        // One allocation, then at least one reallocation per doubling.
        assert!(thread_allocations() - before > 9);
    }
}

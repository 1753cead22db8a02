//! A generation-checked slab arena, written without `unsafe`.
//!
//! Event payloads that own heap data (e.g. an in-flight batch of
//! requests) would otherwise be moved in and out of the event queue on
//! every schedule/pop. Parking them in a [`Slab`] lets the event carry a
//! copyable [`SlabKey`] instead, and freed slots recycle their
//! allocations. Keys carry a generation stamp: a key to a slot that has
//! since been freed (or refilled) is detected and answered with `None`
//! rather than silently aliasing another value.

/// A copyable handle into a [`Slab`]: slot index plus the generation the
/// slot had when the value was inserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlabKey {
    index: u32,
    generation: u32,
}

enum Slot<T> {
    /// Holds a live value inserted at `generation`.
    Occupied { generation: u32, value: T },
    /// Free slot; `next_free` chains the free list. The generation is
    /// what the *next* insertion will stamp.
    Vacant { generation: u32, next_free: Option<u32> },
}

/// An arena of `T` with O(1) insert/remove and stale-key detection.
///
/// # Examples
///
/// ```
/// use inca_events::Slab;
///
/// let mut slab = Slab::new();
/// let key = slab.insert(vec![1, 2, 3]);
/// assert_eq!(slab.get(key), Some(&vec![1, 2, 3]));
/// assert_eq!(slab.remove(key), Some(vec![1, 2, 3]));
/// // The key is stale now — the slot's generation moved on.
/// assert_eq!(slab.get(key), None);
/// assert_eq!(slab.remove(key), None);
/// ```
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free_head: Option<u32>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    #[must_use]
    pub fn new() -> Self {
        Self { slots: Vec::new(), free_head: None, len: 0 }
    }

    /// Stores `value`, reusing a freed slot when one exists.
    pub fn insert(&mut self, value: T) -> SlabKey {
        if let Some(index) = self.free_head {
            if let Some(Slot::Vacant { generation, next_free }) = self.slots.get(index as usize) {
                let (generation, next_free) = (*generation, *next_free);
                self.free_head = next_free;
                self.slots[index as usize] = Slot::Occupied { generation, value };
                self.len += 1;
                return SlabKey { index, generation };
            }
            // A vacant head pointing at an occupied slot means internal
            // corruption; fall through and append instead of clobbering.
            debug_assert!(false, "slab free list out of sync");
        }
        let index = u32::try_from(self.slots.len()).unwrap_or_else(|_| {
            // 2^32 live slots would mean hundreds of gigabytes of slots;
            // treat it as the capacity-exhaustion bug it is.
            panic!("slab capacity exceeded u32 indices") // lint: allow(panic-path)
        });
        self.slots.push(Slot::Occupied { generation: 0, value });
        self.len += 1;
        SlabKey { index, generation: 0 }
    }

    /// Removes and returns the value behind `key`, or `None` when the key
    /// is stale (slot freed or refilled since the key was issued).
    pub fn remove(&mut self, key: SlabKey) -> Option<T> {
        let slot = self.slots.get_mut(key.index as usize)?;
        match slot {
            Slot::Occupied { generation, .. } if *generation == key.generation => {
                let next_gen = generation.wrapping_add(1);
                let old =
                    std::mem::replace(slot, Slot::Vacant { generation: next_gen, next_free: self.free_head });
                self.free_head = Some(key.index);
                self.len -= 1;
                match old {
                    Slot::Occupied { value, .. } => Some(value),
                    Slot::Vacant { .. } => None,
                }
            }
            _ => None,
        }
    }

    /// Borrows the value behind `key`, or `None` when the key is stale.
    #[must_use]
    pub fn get(&self, key: SlabKey) -> Option<&T> {
        match self.slots.get(key.index as usize) {
            Some(Slot::Occupied { generation, value }) if *generation == key.generation => Some(value),
            _ => None,
        }
    }

    /// Mutably borrows the value behind `key`, or `None` when stale.
    pub fn get_mut(&mut self, key: SlabKey) -> Option<&mut T> {
        match self.slots.get_mut(key.index as usize) {
            Some(Slot::Occupied { generation, value }) if *generation == key.generation => Some(value),
            _ => None,
        }
    }

    /// Number of live values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab holds no live values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a), Some(&"a"));
        assert_eq!(slab.remove(a), Some("a"));
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.get(b), Some(&"b"));
    }

    #[test]
    fn slots_recycle_and_stale_keys_miss() {
        let mut slab = Slab::new();
        let a = slab.insert(1);
        assert_eq!(slab.remove(a), Some(1));
        let b = slab.insert(2);
        // Same slot, new generation.
        assert_eq!(slab.slots.len(), 1);
        assert_ne!(a, b);
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.remove(a), None);
        assert_eq!(slab.get(b), Some(&2));
    }

    #[test]
    fn free_list_is_lifo_and_exhaustive() {
        let mut slab = Slab::new();
        let keys: Vec<_> = (0..8).map(|i| slab.insert(i)).collect();
        for &k in &keys {
            assert!(slab.remove(k).is_some());
        }
        assert!(slab.is_empty());
        for i in 0..8 {
            slab.insert(100 + i);
        }
        // All eight original slots were reused; nothing grew.
        assert_eq!(slab.slots.len(), 8);
        assert_eq!(slab.len(), 8);
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut slab = Slab::new();
        let k = slab.insert(vec![1]);
        if let Some(v) = slab.get_mut(k) {
            v.push(2);
        }
        assert_eq!(slab.get(k), Some(&vec![1, 2]));
    }
}

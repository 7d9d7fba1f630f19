//! The symbol table a [`crate::Trace`]'s span labels index into, and the
//! hasher its interning maps use.

use std::hash::{BuildHasherDefault, Hasher};

/// The multiply-rotate hasher of rustc's `FxHash`, for maps keyed by
/// label texts and label patterns. Those keys are short and chosen by the
/// program, not by an adversary, so SipHash's flooding resistance buys
/// nothing and its per-key setup dominates an interning lookup.
#[derive(Clone, Copy, Default)]
pub struct LabelHasher(u64);

/// The `S` of a `HashMap` that hashes with [`LabelHasher`].
pub type LabelHash = BuildHasherDefault<LabelHasher>;

impl LabelHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for LabelHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Label texts stored back to back: `Label(i)` is the text between the end
/// of label `i - 1` and `ends[i]`. The whole table is two allocations
/// however many labels it holds; a table of one `Arc<str>` per label paid
/// one allocation (and its header and rounding) for each.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LabelTable {
    text: String,
    ends: Vec<u32>,
}

impl LabelTable {
    /// Empty table.
    pub fn new() -> Self {
        LabelTable::default()
    }

    /// Appends `label` without looking for an equal entry (that is
    /// [`crate::Trace::intern`]'s job) and returns its index.
    ///
    /// # Panics
    /// Panics once the texts together exceed 4 GiB.
    pub fn push(&mut self, label: &str) -> u32 {
        let id = self.ends.len() as u32;
        self.text.push_str(label);
        self.ends.push(u32::try_from(self.text.len()).expect("label text exceeds 4 GiB"));
        id
    }

    /// The text of label `i`, if the table has one.
    pub fn get(&self, i: usize) -> Option<&str> {
        let end = *self.ends.get(i)? as usize;
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        Some(&self.text[start..end])
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the table holds no label.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Every label's text, in index order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(s, &e)| &self.text[s as usize..e as usize])
    }

    /// Moves both buffers into exact-fit allocations (a copy, like
    /// [`crate::Trace::compact`] does for the spans).
    pub(crate) fn compact(&mut self) {
        if self.text.capacity() > self.text.len() || self.ends.capacity() > self.ends.len() {
            *self = self.clone();
        }
    }
}

//! The symbol table a [`crate::Trace`]'s span labels index into.

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

//! Sorted posting lists shared by the summary row structures.
//!
//! Since the dense-id refactor, every row posting list (`IdList`) holds
//! 4-byte **dense ids** — indices into the owning [`BrokerSummary`]'s
//! intern table — instead of full multi-word [`SubscriptionId`] structs.
//! The intern table keeps dense order identical to `SubscriptionId` sort
//! order, so a sorted dense list resolves to a sorted id list without any
//! per-event sorting. The naive reference paths (`match_event_scan`,
//! `query_scan`) still traffic in full ids via [`SubIdList`].
//!
//! [`BrokerSummary`]: crate::BrokerSummary
//! [`SubscriptionId`]: subsum_types::SubscriptionId

use subsum_types::SubscriptionId;

/// A dense subscription id: the index of a [`SubscriptionId`] in the
/// owning summary's intern table. Dense ids are assigned so that dense
/// order equals `SubscriptionId` sort order at all times.
pub type DenseId = u32;

/// A sorted, deduplicated posting list of dense ids attached to a summary
/// row.
pub type IdList = Vec<DenseId>;

/// A sorted, deduplicated list of full subscription ids (the intern table
/// itself and the naive reference paths).
pub type SubIdList = Vec<SubscriptionId>;

/// Inserts `id` keeping the list sorted and deduplicated.
pub(crate) fn idlist_insert<T: Ord + Copy>(list: &mut Vec<T>, id: T) {
    if let Err(pos) = list.binary_search(&id) {
        list.insert(pos, id);
    }
}

/// Asserts the posting-list invariant: strictly ascending entries (sorted
/// and deduplicated). Compiled only for tests and debug builds; the
/// summary validators and the property tests call it after every
/// mutation.
///
/// `IdList` is a type alias, so this is a free function rather than a
/// method.
///
/// # Panics
///
/// Panics when the list is unsorted or contains duplicates.
#[cfg(any(test, debug_assertions))]
pub fn validate_idlist<T: Ord + Copy + std::fmt::Debug>(list: &[T]) {
    assert!(
        list.windows(2).all(|w| w[0] < w[1]),
        "id list is not strictly sorted: {list:?}"
    );
}

/// Merges the sorted `other` into the sorted `list`.
///
/// Small batches use insertion (cheap, in place); large batches use a
/// linear two-pointer merge so that summary merging stays linear in the
/// total id count.
pub(crate) fn idlist_merge<T: Ord + Copy>(list: &mut Vec<T>, other: &[T]) {
    debug_assert!(other.windows(2).all(|w| w[0] <= w[1]), "other is sorted");
    if other.len() <= 8 {
        for &id in other {
            idlist_insert(list, id);
        }
        return;
    }
    let mut merged = Vec::with_capacity(list.len() + other.len());
    let (mut i, mut j) = (0, 0);
    while i < list.len() && j < other.len() {
        match list[i].cmp(&other[j]) {
            std::cmp::Ordering::Less => {
                merged.push(list[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                merged.push(other[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                merged.push(list[i]);
                i += 1;
                j += 1;
            }
        }
    }
    merged.extend_from_slice(&list[i..]);
    while j < other.len() {
        // `other` may contain duplicates relative to nothing, but is
        // itself deduplicated; plain extend suffices.
        merged.push(other[j]);
        j += 1;
    }
    *list = merged;
}

/// Applies a strictly monotone renumbering to a sorted dense posting list
/// in place. Monotonicity preserves both sortedness and dedup, so the
/// list invariant survives intern-table renumbering without a re-sort.
pub(crate) fn idlist_remap(list: &mut IdList, map: impl Fn(DenseId) -> DenseId) {
    for d in list.iter_mut() {
        *d = map(*d);
    }
    debug_assert!(
        list.windows(2).all(|w| w[0] < w[1]),
        "remap was not monotone"
    );
}

/// Deletes `gone` from the list (if present) and decrements every dense id
/// above it — the posting-list half of removing one intern-table slot.
/// Single pass, keeps the list sorted and deduplicated.
pub(crate) fn idlist_remove_remap(list: &mut IdList, gone: DenseId) {
    let mut w = 0;
    for r in 0..list.len() {
        let d = list[r];
        if d == gone {
            continue;
        }
        list[w] = if d > gone { d - 1 } else { d };
        w += 1;
    }
    list.truncate(w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsum_types::{AttrMask, BrokerId, LocalSubId};

    fn id(k: u32) -> SubscriptionId {
        SubscriptionId::new(BrokerId(0), LocalSubId(k), AttrMask::empty())
    }

    #[test]
    fn insert_keeps_sorted_dedup() {
        let mut l = IdList::new();
        for k in [5u32, 1, 3, 5, 1] {
            idlist_insert(&mut l, k);
        }
        assert_eq!(l, vec![1, 3, 5]);
    }

    #[test]
    fn insert_keeps_sorted_dedup_full_ids() {
        let mut l = SubIdList::new();
        for k in [5u32, 1, 3, 5, 1] {
            idlist_insert(&mut l, id(k));
        }
        assert_eq!(l, vec![id(1), id(3), id(5)]);
    }

    #[test]
    fn merge_small_and_large_agree() {
        let base: IdList = (0..50u32).step_by(3).collect();
        let other: IdList = (0..50u32).step_by(2).collect();
        let mut small_path = base.clone();
        for &x in &other {
            idlist_insert(&mut small_path, x);
        }
        let mut large_path = base.clone();
        idlist_merge(&mut large_path, &other);
        assert_eq!(small_path, large_path);
        assert!(large_path.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn merge_with_empty() {
        let mut l: IdList = vec![1];
        idlist_merge(&mut l, &[]);
        assert_eq!(l, vec![1]);
        let mut e = IdList::new();
        let other: IdList = (0..20u32).collect();
        idlist_merge(&mut e, &other);
        assert_eq!(e, other);
    }

    #[test]
    fn remap_shifts_monotonically() {
        let mut l: IdList = vec![0, 2, 5];
        idlist_remap(&mut l, |d| if d >= 2 { d + 1 } else { d });
        assert_eq!(l, vec![0, 3, 6]);
    }

    #[test]
    fn remove_remap_deletes_and_shifts() {
        let mut l: IdList = vec![0, 2, 5];
        idlist_remove_remap(&mut l, 2);
        assert_eq!(l, vec![0, 4]);
        // Absent id: only the shift applies.
        let mut m: IdList = vec![0, 4];
        idlist_remove_remap(&mut m, 1);
        assert_eq!(m, vec![0, 3]);
    }
}

//! A page-based B+-tree over byte-string keys with `u64` values.
//!
//! Used for the primary keys of the paper's Table 5 schema and as the
//! index structure of §5.3 ("we implement the index as a relational table
//! with a B+-tree on top of it"). Keys are arbitrary byte strings (up to
//! [`MAX_KEY`]), values are `u64` (packed RIDs, blob ids, or posting
//! payloads); range and prefix scans walk the leaf chain.
//!
//! Nodes are read-modify-written whole: a node is deserialized into an
//! entry vector, mutated, and written back — simple, obviously correct,
//! and plenty fast at 8 KiB pages. Reads do not pay for that: point
//! lookups and scans walk a node's entries in place on its pool page
//! (`EntryWalk`) and copy out only what they return. Splits are size-balanced so any node
//! that fit before an insert fits after a split. Deletion is by key
//! removal without rebalancing (lazy deletion), which matches the
//! append-then-query workload of the paper.

use crate::error::StorageError;
use crate::pager::{BufferPool, PageRead};
use crate::{PageId, NO_PAGE, PAGE_SIZE};

/// Maximum key length in bytes.
pub const MAX_KEY: usize = 1024;

const LEAF: u8 = 1;
const INTERNAL: u8 = 2;

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        next: PageId,
        entries: Vec<(Vec<u8>, u64)>,
    },
    Internal {
        leftmost: PageId,
        entries: Vec<(Vec<u8>, PageId)>,
    },
}

impl Node {
    fn serialized_size(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => {
                11 + entries.iter().map(|(k, _)| 2 + k.len() + 8).sum::<usize>()
            }
            Node::Internal { entries, .. } => {
                11 + entries.iter().map(|(k, _)| 2 + k.len() + 8).sum::<usize>()
            }
        }
    }

    fn write(&self, buf: &mut [u8; PAGE_SIZE]) {
        debug_assert!(
            self.serialized_size() <= PAGE_SIZE,
            "node overflow on write"
        );
        let mut pos = 0usize;
        match self {
            Node::Leaf { next, entries } => {
                buf[pos] = LEAF;
                pos += 1;
                buf[pos..pos + 2].copy_from_slice(&(entries.len() as u16).to_le_bytes());
                pos += 2;
                buf[pos..pos + 8].copy_from_slice(&next.to_le_bytes());
                pos += 8;
                for (k, v) in entries {
                    buf[pos..pos + 2].copy_from_slice(&(k.len() as u16).to_le_bytes());
                    pos += 2;
                    buf[pos..pos + k.len()].copy_from_slice(k);
                    pos += k.len();
                    buf[pos..pos + 8].copy_from_slice(&v.to_le_bytes());
                    pos += 8;
                }
            }
            Node::Internal { leftmost, entries } => {
                buf[pos] = INTERNAL;
                pos += 1;
                buf[pos..pos + 2].copy_from_slice(&(entries.len() as u16).to_le_bytes());
                pos += 2;
                buf[pos..pos + 8].copy_from_slice(&leftmost.to_le_bytes());
                pos += 8;
                for (k, c) in entries {
                    buf[pos..pos + 2].copy_from_slice(&(k.len() as u16).to_le_bytes());
                    pos += 2;
                    buf[pos..pos + k.len()].copy_from_slice(k);
                    pos += k.len();
                    buf[pos..pos + 8].copy_from_slice(&c.to_le_bytes());
                    pos += 8;
                }
            }
        }
    }

    fn read(page: PageId, buf: &[u8; PAGE_SIZE]) -> Result<Node, StorageError> {
        let (tag, head, walk) = EntryWalk::open(page, buf)?;
        let mut entries = Vec::with_capacity(walk.left);
        for entry in walk {
            let (k, v) = entry?;
            entries.push((k.to_vec(), v));
        }
        Ok(if tag == LEAF {
            Node::Leaf {
                next: head,
                entries,
            }
        } else {
            Node::Internal {
                leftmost: head,
                entries,
            }
        })
    }
}

/// Borrowed walk over a serialized node's entries in key order — the one
/// reader of the entry encoding. [`Node::read`] collects it into owned
/// entries for read-modify-write; lookups and scans search it in place,
/// so a point `get` allocates nothing.
struct EntryWalk<'a> {
    page: PageId,
    buf: &'a [u8; PAGE_SIZE],
    pos: usize,
    left: usize,
}

impl<'a> EntryWalk<'a> {
    /// Parse a node header: `(tag, next-leaf | leftmost-child, entries)`.
    fn open(page: PageId, buf: &'a [u8; PAGE_SIZE]) -> Result<(u8, u64, Self), StorageError> {
        let tag = buf[0];
        if tag != LEAF && tag != INTERNAL {
            return Err(StorageError::CorruptPage {
                page,
                reason: "unknown node tag",
            });
        }
        let left = u16::from_le_bytes(buf[1..3].try_into().expect("len")) as usize;
        let head = u64::from_le_bytes(buf[3..11].try_into().expect("len"));
        let walk = EntryWalk {
            page,
            buf,
            pos: 11,
            left,
        };
        Ok((tag, head, walk))
    }
}

impl<'a> Iterator for EntryWalk<'a> {
    type Item = Result<(&'a [u8], u64), StorageError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let corrupt = |reason| {
            Some(Err(StorageError::CorruptPage {
                page: self.page,
                reason,
            }))
        };
        let (buf, pos) = (self.buf, self.pos);
        if pos + 2 > PAGE_SIZE {
            return corrupt("entry header out of range");
        }
        let klen = u16::from_le_bytes(buf[pos..pos + 2].try_into().expect("len")) as usize;
        let key_at = pos + 2;
        if klen > MAX_KEY || key_at + klen + 8 > PAGE_SIZE {
            return corrupt("entry body out of range");
        }
        let val_at = key_at + klen;
        let val = u64::from_le_bytes(buf[val_at..val_at + 8].try_into().expect("len"));
        self.pos = val_at + 8;
        Some(Ok((&buf[key_at..val_at], val)))
    }
}

/// One step of a descent, decided in place on the page: the child of an
/// internal node that covers `key` (rightmost separator ≤ `key`, else the
/// leftmost child), or `None` at a leaf.
fn child_in_place(
    tag: u8,
    leftmost: PageId,
    walk: EntryWalk<'_>,
    key: &[u8],
) -> Result<Option<PageId>, StorageError> {
    if tag == LEAF {
        return Ok(None);
    }
    let mut child = leftmost;
    for entry in walk {
        let (sep, c) = entry?;
        if sep > key {
            break;
        }
        child = c;
    }
    Ok(Some(child))
}

/// Descend from the root to the leaf whose key range covers `key`;
/// returns it still latched for reading.
fn leaf_for(
    pool: &BufferPool,
    root: PageId,
    key: &[u8],
) -> Result<(PageId, PageRead), StorageError> {
    let mut pid = root;
    loop {
        let page = pool.fetch_read(pid)?;
        let (tag, head, walk) = EntryWalk::open(pid, &page)?;
        match child_in_place(tag, head, walk, key)? {
            Some(child) => pid = child,
            None => return Ok((pid, page)),
        }
    }
}

/// A B+-tree handle. Only the meta page id needs to be persisted (the
/// root pointer lives inside the meta page, so root splits do not touch
/// the catalog).
pub struct BTree {
    meta: PageId,
}

impl BTree {
    /// Create an empty tree; returns the handle whose `meta_page` goes in
    /// the catalog.
    pub fn create(pool: &BufferPool) -> Result<BTree, StorageError> {
        let meta = pool.allocate()?;
        let root = pool.allocate()?;
        write_node(
            pool,
            root,
            &Node::Leaf {
                next: NO_PAGE,
                entries: Vec::new(),
            },
        )?;
        let mut mp = pool.fetch_write(meta)?;
        mp[0..8].copy_from_slice(&root.to_le_bytes());
        drop(mp);
        Ok(BTree { meta })
    }

    /// Reopen from the catalog.
    pub fn open(meta: PageId) -> BTree {
        BTree { meta }
    }

    /// The persisted meta page id.
    pub fn meta_page(&self) -> PageId {
        self.meta
    }

    fn root(&self, pool: &BufferPool) -> Result<PageId, StorageError> {
        let mp = pool.fetch_read(self.meta)?;
        Ok(u64::from_le_bytes(mp[0..8].try_into().expect("len")))
    }

    fn set_root(&self, pool: &BufferPool, root: PageId) -> Result<(), StorageError> {
        let mut mp = pool.fetch_write(self.meta)?;
        mp[0..8].copy_from_slice(&root.to_le_bytes());
        Ok(())
    }

    /// Point lookup. Searches each node in place on its pool page (keys
    /// are stored in order, so the walk stops at the first larger one);
    /// nothing is deserialized or allocated.
    pub fn get(&self, pool: &BufferPool, key: &[u8]) -> Result<Option<u64>, StorageError> {
        let (leaf, page) = leaf_for(pool, self.root(pool)?, key)?;
        let (_, _, walk) = EntryWalk::open(leaf, &page)?;
        for entry in walk {
            let (k, v) = entry?;
            match k.cmp(key) {
                std::cmp::Ordering::Less => {}
                std::cmp::Ordering::Equal => return Ok(Some(v)),
                std::cmp::Ordering::Greater => break,
            }
        }
        Ok(None)
    }

    /// Insert or overwrite; returns the previous value if any.
    pub fn insert(
        &self,
        pool: &BufferPool,
        key: &[u8],
        value: u64,
    ) -> Result<Option<u64>, StorageError> {
        if key.len() > MAX_KEY {
            return Err(StorageError::TupleTooLarge {
                size: key.len(),
                max: MAX_KEY,
            });
        }
        let root = self.root(pool)?;
        let (old, split) = insert_rec(pool, root, key, value)?;
        if let Some((sep, new_child)) = split {
            let new_root = pool.allocate()?;
            write_node(
                pool,
                new_root,
                &Node::Internal {
                    leftmost: root,
                    entries: vec![(sep, new_child)],
                },
            )?;
            self.set_root(pool, new_root)?;
        }
        Ok(old)
    }

    /// Delete a key; returns whether it existed. Lazy (no rebalancing).
    pub fn delete(&self, pool: &BufferPool, key: &[u8]) -> Result<bool, StorageError> {
        let (pid, page) = leaf_for(pool, self.root(pool)?, key)?;
        // Release the read latch before the leaf is rewritten.
        drop(page);
        let Node::Leaf { next, mut entries } = read_node(pool, pid)? else {
            unreachable!("routed to a leaf")
        };
        match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
            Ok(i) => {
                entries.remove(i);
                write_node(pool, pid, &Node::Leaf { next, entries })?;
                Ok(true)
            }
            Err(_) => Ok(false),
        }
    }

    /// All `(key, value)` pairs with `lo ≤ key < hi` (unbounded above when
    /// `hi` is `None`), in key order.
    pub fn scan_range(
        &self,
        pool: &BufferPool,
        lo: &[u8],
        hi: Option<&[u8]>,
    ) -> Result<Vec<(Vec<u8>, u64)>, StorageError> {
        let (mut pid, mut page) = leaf_for(pool, self.root(pool)?, lo)?;
        let mut out = Vec::new();
        loop {
            let (tag, next, walk) = EntryWalk::open(pid, &page)?;
            if tag != LEAF {
                return Err(StorageError::CorruptPage {
                    page: pid,
                    reason: "leaf chain reached an internal node",
                });
            }
            // Only the entries in range are copied out of the page.
            for entry in walk {
                let (k, v) = entry?;
                if k < lo {
                    continue;
                }
                if hi.is_some_and(|hi| k >= hi) {
                    return Ok(out);
                }
                out.push((k.to_vec(), v));
            }
            if next == NO_PAGE {
                return Ok(out);
            }
            pid = next;
            page = pool.fetch_read(pid)?;
        }
    }

    /// All pairs whose key starts with `prefix`, in key order.
    pub fn scan_prefix(
        &self,
        pool: &BufferPool,
        prefix: &[u8],
    ) -> Result<Vec<(Vec<u8>, u64)>, StorageError> {
        let hi = prefix_upper_bound(prefix);
        self.scan_range(pool, prefix, hi.as_deref())
    }

    /// The largest key, by one descent along the rightmost children
    /// (O(height) pages); `None` for an empty tree. Deletion is lazy, so
    /// a rightmost leaf emptied by deletes also reads `None`.
    pub fn last_key(&self, pool: &BufferPool) -> Result<Option<Vec<u8>>, StorageError> {
        let mut pid = self.root(pool)?;
        loop {
            let page = pool.fetch_read(pid)?;
            let (tag, head, walk) = EntryWalk::open(pid, &page)?;
            let last = walk.last().transpose()?;
            if tag == LEAF {
                return Ok(last.map(|(key, _)| key.to_vec()));
            }
            pid = last.map_or(head, |(_, child)| child);
        }
    }

    /// Total number of keys (walks every leaf).
    pub fn count(&self, pool: &BufferPool) -> Result<usize, StorageError> {
        Ok(self.scan_range(pool, &[], None)?.len())
    }

    /// Height of the tree (1 = a single leaf).
    pub fn height(&self, pool: &BufferPool) -> Result<usize, StorageError> {
        let mut pid = self.root(pool)?;
        let mut h = 1;
        loop {
            match read_node(pool, pid)? {
                Node::Internal { leftmost, .. } => {
                    pid = leftmost;
                    h += 1;
                }
                Node::Leaf { .. } => return Ok(h),
            }
        }
    }
}

/// Smallest byte string strictly greater than every string with `prefix`,
/// or `None` if no such bound exists (prefix is all `0xFF`).
fn prefix_upper_bound(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut hi = prefix.to_vec();
    while let Some(&last) = hi.last() {
        if last == 0xFF {
            hi.pop();
        } else {
            *hi.last_mut().expect("non-empty") += 1;
            return Some(hi);
        }
    }
    None
}

fn read_node(pool: &BufferPool, pid: PageId) -> Result<Node, StorageError> {
    let page = pool.fetch_read(pid)?;
    Node::read(pid, &page)
}

fn write_node(pool: &BufferPool, pid: PageId, node: &Node) -> Result<(), StorageError> {
    let mut page = pool.fetch_write(pid)?;
    node.write(&mut page);
    Ok(())
}

/// Size-balanced split point: smallest index whose prefix reaches half the
/// payload, kept within `1..len`.
fn split_point<T>(entries: &[(Vec<u8>, T)]) -> usize {
    let total: usize = entries.iter().map(|(k, _)| 2 + k.len() + 8).sum();
    let mut acc = 0usize;
    for (i, (k, _)) in entries.iter().enumerate() {
        acc += 2 + k.len() + 8;
        if acc >= total / 2 {
            return (i + 1).clamp(1, entries.len() - 1);
        }
    }
    entries.len() / 2
}

type SplitInfo = Option<(Vec<u8>, PageId)>;

fn insert_rec(
    pool: &BufferPool,
    pid: PageId,
    key: &[u8],
    value: u64,
) -> Result<(Option<u64>, SplitInfo), StorageError> {
    // Route on the page itself: an internal node is deserialized only
    // when a child split hands it a separator, a leaf only when the new
    // entry does not fit and it has to split.
    let child = {
        let page = pool.fetch_read(pid)?;
        let (tag, head, walk) = EntryWalk::open(pid, &page)?;
        child_in_place(tag, head, walk, key)?
    };
    let Some(child) = child else {
        let placed = leaf_insert_in_place(&mut *pool.fetch_write(pid)?, pid, key, value)?;
        return match placed {
            Some(old) => Ok((old, None)),
            None => split_leaf(pool, pid, key, value),
        };
    };
    let (old, split) = insert_rec(pool, child, key, value)?;
    let Some((sep, new_child)) = split else {
        return Ok((old, None));
    };
    let Node::Internal {
        leftmost,
        mut entries,
    } = read_node(pool, pid)?
    else {
        unreachable!("routed through an internal node")
    };
    let pos = match entries.binary_search_by(|(k, _)| k.as_slice().cmp(&sep)) {
        Ok(i) => i + 1,
        Err(i) => i,
    };
    entries.insert(pos, (sep, new_child));
    let node = Node::Internal { leftmost, entries };
    if node.serialized_size() <= PAGE_SIZE {
        write_node(pool, pid, &node)?;
        return Ok((old, None));
    }
    let Node::Internal {
        leftmost,
        mut entries,
    } = node
    else {
        unreachable!()
    };
    let mid = split_point(&entries);
    let mut right_entries = entries.split_off(mid);
    // Promote the first right entry; its child becomes the right
    // node's leftmost pointer.
    let (promoted, right_leftmost) = right_entries.remove(0);
    let right_pid = pool.allocate()?;
    write_node(
        pool,
        right_pid,
        &Node::Internal {
            leftmost: right_leftmost,
            entries: right_entries,
        },
    )?;
    write_node(pool, pid, &Node::Internal { leftmost, entries })?;
    Ok((old, Some((promoted, right_pid))))
}

/// Insert or overwrite `key` in the serialized leaf `buf` by shifting the
/// entries after it — no deserialization, no allocation. `Some(previous
/// value)` when done; `None` when the entry does not fit and the leaf
/// must split (`buf` is then untouched). The bytes written are the ones
/// [`Node::write`] would produce for the same entries.
fn leaf_insert_in_place(
    buf: &mut [u8; PAGE_SIZE],
    page: PageId,
    key: &[u8],
    value: u64,
) -> Result<Option<Option<u64>>, StorageError> {
    let (_, _, mut walk) = EntryWalk::open(page, buf)?;
    let count = walk.left;
    // Offset of the first entry with a larger key, if any.
    let mut slot = None;
    loop {
        let start = walk.pos;
        let Some(entry) = walk.next() else {
            break;
        };
        let (k, old) = entry?;
        if slot.is_none() && k >= key {
            if k == key {
                let val_at = walk.pos - 8;
                buf[val_at..val_at + 8].copy_from_slice(&value.to_le_bytes());
                return Ok(Some(Some(old)));
            }
            slot = Some(start);
        }
    }
    let end = walk.pos;
    let at = slot.unwrap_or(end);
    let need = 2 + key.len() + 8;
    if end + need > PAGE_SIZE {
        return Ok(None);
    }
    buf.copy_within(at..end, at + need);
    buf[at..at + 2].copy_from_slice(&(key.len() as u16).to_le_bytes());
    buf[at + 2..at + 2 + key.len()].copy_from_slice(key);
    buf[at + need - 8..at + need].copy_from_slice(&value.to_le_bytes());
    buf[1..3].copy_from_slice(&(count as u16 + 1).to_le_bytes());
    Ok(Some(None))
}

/// Insert a new `key` into a leaf it does not fit in: deserialize, insert,
/// split size-balanced, and hand the separator up.
fn split_leaf(
    pool: &BufferPool,
    pid: PageId,
    key: &[u8],
    value: u64,
) -> Result<(Option<u64>, SplitInfo), StorageError> {
    let Node::Leaf { next, mut entries } = read_node(pool, pid)? else {
        unreachable!("routed to a leaf")
    };
    let at = entries.partition_point(|(k, _)| k.as_slice() < key);
    entries.insert(at, (key.to_vec(), value));
    let mid = split_point(&entries);
    let right_entries = entries.split_off(mid);
    let sep = right_entries[0].0.clone();
    let right_pid = pool.allocate()?;
    write_node(
        pool,
        right_pid,
        &Node::Leaf {
            next,
            entries: right_entries,
        },
    )?;
    write_node(
        pool,
        pid,
        &Node::Leaf {
            next: right_pid,
            entries,
        },
    )?;
    Ok((None, Some((sep, right_pid))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::collections::BTreeMap;

    fn pool() -> BufferPool {
        BufferPool::new(Box::new(MemDisk::new()), 64)
    }

    #[test]
    fn insert_get_small() {
        let pool = pool();
        let t = BTree::create(&pool).unwrap();
        assert_eq!(t.insert(&pool, b"b", 2).unwrap(), None);
        assert_eq!(t.insert(&pool, b"a", 1).unwrap(), None);
        assert_eq!(t.insert(&pool, b"c", 3).unwrap(), None);
        assert_eq!(t.get(&pool, b"a").unwrap(), Some(1));
        assert_eq!(t.get(&pool, b"b").unwrap(), Some(2));
        assert_eq!(t.get(&pool, b"c").unwrap(), Some(3));
        assert_eq!(t.get(&pool, b"d").unwrap(), None);
    }

    #[test]
    fn overwrite_returns_old_value() {
        let pool = pool();
        let t = BTree::create(&pool).unwrap();
        assert_eq!(t.insert(&pool, b"k", 1).unwrap(), None);
        assert_eq!(t.insert(&pool, b"k", 2).unwrap(), Some(1));
        assert_eq!(t.get(&pool, b"k").unwrap(), Some(2));
        assert_eq!(t.count(&pool).unwrap(), 1);
    }

    #[test]
    fn thousands_of_keys_split_and_stay_sorted() {
        let pool = pool();
        let t = BTree::create(&pool).unwrap();
        let n = 5000u64;
        for i in 0..n {
            let key = format!("key{:08}", (i * 2654435761) % n);
            t.insert(&pool, key.as_bytes(), i).unwrap();
        }
        assert!(t.height(&pool).unwrap() >= 2, "tree must have split");
        let all = t.scan_range(&pool, &[], None).unwrap();
        assert_eq!(all.len() as u64, n);
        for w in all.windows(2) {
            assert!(w[0].0 < w[1].0, "keys out of order");
        }
        assert_eq!(
            t.last_key(&pool).unwrap().as_ref(),
            all.last().map(|e| &e.0)
        );
    }

    #[test]
    fn matches_btreemap_model_under_random_ops() {
        let pool = pool();
        let t = BTree::create(&pool).unwrap();
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(99);
        for step in 0..4000 {
            let key = format!("k{:04}", rng.random_range(0..800u32)).into_bytes();
            match rng.random_range(0..10u8) {
                0..=5 => {
                    let v = step as u64;
                    assert_eq!(
                        t.insert(&pool, &key, v).unwrap(),
                        model.insert(key.clone(), v),
                        "insert mismatch at step {step}"
                    );
                }
                6..=7 => {
                    assert_eq!(
                        t.delete(&pool, &key).unwrap(),
                        model.remove(&key).is_some(),
                        "delete mismatch at step {step}"
                    );
                }
                _ => {
                    assert_eq!(
                        t.get(&pool, &key).unwrap(),
                        model.get(&key).copied(),
                        "get mismatch at step {step}"
                    );
                }
            }
        }
        let ours = t.scan_range(&pool, &[], None).unwrap();
        let theirs: Vec<(Vec<u8>, u64)> = model.iter().map(|(k, v)| (k.clone(), *v)).collect();
        assert_eq!(ours, theirs);
    }

    #[test]
    fn in_place_leaf_insert_writes_what_a_rewrite_would() {
        // One leaf, filled with variable-length keys (and overwrites)
        // until it is full: after every step the page must hold exactly
        // the bytes `Node::write` produces for the model's entries.
        let mut page = Box::new([0u8; PAGE_SIZE]);
        Node::Leaf {
            next: 7,
            entries: Vec::new(),
        }
        .write(&mut page);
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(5);
        for step in 0u64.. {
            let len = rng.random_range(0..40usize);
            let key: Vec<u8> = (0..len).map(|_| rng.random_range(b'a'..b'e')).collect();
            let placed = leaf_insert_in_place(&mut page, 1, &key, step).unwrap();
            let entries =
                |m: &BTreeMap<Vec<u8>, u64>| m.iter().map(|(k, v)| (k.clone(), *v)).collect();
            let Some(old) = placed else {
                // Refused: the entry really does not fit, and nothing moved.
                let full = Node::Leaf {
                    next: 7,
                    entries: entries(&model),
                };
                assert!(full.serialized_size() + 2 + key.len() + 8 > PAGE_SIZE);
                assert!(!model.contains_key(&key));
                let mut want = Box::new([0u8; PAGE_SIZE]);
                full.write(&mut want);
                let used = full.serialized_size();
                assert_eq!(page[..used], want[..used]);
                assert!(model.len() > 100, "leaf filled after {} keys", model.len());
                break;
            };
            assert_eq!(old, model.insert(key, step), "step {step}");
            let node = Node::Leaf {
                next: 7,
                entries: entries(&model),
            };
            let mut want = Box::new([0u8; PAGE_SIZE]);
            node.write(&mut want);
            let used = node.serialized_size();
            assert_eq!(page[..used], want[..used], "step {step}");
        }
    }

    #[test]
    fn range_scan_respects_bounds() {
        let pool = pool();
        let t = BTree::create(&pool).unwrap();
        for i in 0..100u64 {
            t.insert(&pool, format!("{i:03}").as_bytes(), i).unwrap();
        }
        let mid = t.scan_range(&pool, b"020", Some(b"030")).unwrap();
        assert_eq!(mid.len(), 10);
        assert_eq!(mid[0].0, b"020".to_vec());
        assert_eq!(mid[9].0, b"029".to_vec());
        let tail = t.scan_range(&pool, b"098", None).unwrap();
        assert_eq!(tail.len(), 2);
    }

    #[test]
    fn prefix_scan_finds_exactly_prefixed_keys() {
        let pool = pool();
        let t = BTree::create(&pool).unwrap();
        for term in ["public", "publication", "pub", "law", "president", "pq"] {
            t.insert(&pool, term.as_bytes(), 1).unwrap();
        }
        let hits: Vec<String> = t
            .scan_prefix(&pool, b"pub")
            .unwrap()
            .into_iter()
            .map(|(k, _)| String::from_utf8(k).unwrap())
            .collect();
        assert_eq!(hits, vec!["pub", "public", "publication"]);
    }

    #[test]
    fn prefix_upper_bound_handles_ff() {
        assert_eq!(prefix_upper_bound(b"ab"), Some(b"ac".to_vec()));
        assert_eq!(prefix_upper_bound(&[0x61, 0xFF]), Some(vec![0x62]));
        assert_eq!(prefix_upper_bound(&[0xFF, 0xFF]), None);
        assert_eq!(prefix_upper_bound(b""), None);
    }

    #[test]
    fn large_keys_force_early_splits() {
        let pool = pool();
        let t = BTree::create(&pool).unwrap();
        for i in 0..50u64 {
            let key = vec![i as u8; MAX_KEY];
            t.insert(&pool, &key, i).unwrap();
        }
        for i in 0..50u64 {
            let key = vec![i as u8; MAX_KEY];
            assert_eq!(t.get(&pool, &key).unwrap(), Some(i));
        }
        assert!(t.height(&pool).unwrap() >= 2);
    }

    #[test]
    fn oversized_key_rejected() {
        let pool = pool();
        let t = BTree::create(&pool).unwrap();
        let e = t.insert(&pool, &vec![0u8; MAX_KEY + 1], 0).unwrap_err();
        assert!(matches!(e, StorageError::TupleTooLarge { .. }));
    }

    #[test]
    fn reopen_by_meta_page() {
        let pool = pool();
        let meta;
        {
            let t = BTree::create(&pool).unwrap();
            meta = t.meta_page();
            for i in 0..2000u64 {
                t.insert(&pool, format!("{i:05}").as_bytes(), i).unwrap();
            }
        }
        let t = BTree::open(meta);
        assert_eq!(t.get(&pool, b"01234").unwrap(), Some(1234));
        assert_eq!(t.count(&pool).unwrap(), 2000);
    }

    #[test]
    fn empty_tree_behaviour() {
        let pool = pool();
        let t = BTree::create(&pool).unwrap();
        assert_eq!(t.get(&pool, b"x").unwrap(), None);
        assert!(!t.delete(&pool, b"x").unwrap());
        assert_eq!(t.count(&pool).unwrap(), 0);
        assert_eq!(t.height(&pool).unwrap(), 1);
        assert!(t.scan_prefix(&pool, b"").unwrap().is_empty());
    }
}

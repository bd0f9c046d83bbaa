package storage

import (
	"cmp"
	"slices"
)

// OrderedIndex is an ordered secondary index over one column: every row id
// of a snapshot, sorted by that column's value, ties in ascending row id.
// It is immutable once built, so any number of executions may probe it
// concurrently. Snapshot.Index builds and shares one per (snapshot, column).
type OrderedIndex struct {
	keys []int64 // sorted ascending
	rows []int32 // rows[i] is the row id holding keys[i]
}

// NewOrderedIndex indexes keys[i] under row id i with one O(n log n) sort
// of (key, row id) pairs. keys is read, not retained.
func NewOrderedIndex(keys []int64) *OrderedIndex {
	type entry struct {
		key int64
		row int32
	}
	ents := make([]entry, len(keys))
	for i, k := range keys {
		ents[i] = entry{k, int32(i)}
	}
	slices.SortFunc(ents, func(a, b entry) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.row, b.row)
	})
	ix := &OrderedIndex{keys: make([]int64, len(ents)), rows: make([]int32, len(ents))}
	for i, e := range ents {
		ix.keys[i], ix.rows[i] = e.key, e.row
	}
	return ix
}

// Lookup returns the row ids whose key equals v, in ascending order. The
// slice is the index's own storage; callers must not mutate it.
func (ix *OrderedIndex) Lookup(v int64) []int32 {
	lo, _ := slices.BinarySearch(ix.keys, v)
	hi := lo
	for hi < len(ix.keys) && ix.keys[hi] == v {
		hi++
	}
	return ix.rows[lo:hi:hi]
}

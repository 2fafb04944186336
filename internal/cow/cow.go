// Package cow is a copy-on-write row table: a growable array of rows
// that one writer mutates while any number of sealed views keep reading
// the rows as they were at their seal.
//
// Rows live in blocks of BlockRows. Sealing copies the block pointers,
// ⌈n/BlockRows⌉ of them, and bumps the table's generation; no row and
// no block is copied. Each block records the generation it was made in
// and a mask of the rows whose payload the writer has cloned since. So a
// block older than its table is shared with a view, and the writer's
// first touch of one of its rows clones the block's header (BlockRows
// row values) and then the row's payload. Later touches of that row
// until the next seal find both owned and copy nothing.
//
// The table itself is not safe for concurrent use; a sealed view is,
// for any number of readers, as long as nobody writes through it.
package cow

import "slices"

// blockBits is log2 of BlockRows.
const blockBits = 6

// BlockRows is the number of rows per block: one 64-bit owned mask.
const BlockRows = 1 << blockBits

// block holds BlockRows consecutive rows.
type block[T any] struct {
	rows [BlockRows]T
	// gen is the table generation the block was made in. A block older
	// than its table is shared with a sealed view and is never written.
	gen uint64
	// owned has bit k set when row k's payload belongs to the writer
	// alone: cloned by Own or handed over by Append since gen.
	owned uint64
}

// Table is a growable array of rows of type T. The zero Table is empty;
// make one with New to give Own its clone function.
type Table[T any] struct {
	n      int
	gen    uint64
	blocks []*block[T]
	// clone returns a deep copy of a row's payload, one that no sealed
	// view references.
	clone func(T) T
}

// New returns an empty table whose Own clones a shared row with clone.
func New[T any](clone func(T) T) Table[T] { return Table[T]{clone: clone} }

// Len returns the number of rows.
func (t *Table[T]) Len() int { return t.n }

// Get returns row i for reading. The caller must not mutate the payload
// through it; use Own for that.
func (t *Table[T]) Get(i int) T {
	if uint(i) >= uint(t.n) {
		panic("cow: row index out of range")
	}
	return t.blocks[i>>blockBits].rows[i&(BlockRows-1)]
}

// Blocks returns the number of blocks, ⌈Len/BlockRows⌉.
func (t *Table[T]) Blocks() int { return len(t.blocks) }

// Block returns the rows of block b, rows b·BlockRows up to the lesser
// of (b+1)·BlockRows and Len, for reading: a whole-table scan runs one
// plain slice loop per block.
func (t *Table[T]) Block(b int) []T {
	return t.blocks[b].rows[:min(BlockRows, t.n-b<<blockBits)]
}

// Own returns row i's payload for writing, cloning it first if a sealed
// view may still read it.
func (t *Table[T]) Own(i int) T {
	b, k := t.writable(i), i&(BlockRows-1)
	if b.owned&(1<<k) == 0 {
		b.rows[k] = t.clone(b.rows[k])
		b.owned |= 1 << k
	}
	return b.rows[k]
}

// Set replaces row i by v, which the caller hands over: no sealed view
// may reference it. A write that changes a row's length (a slice
// payload that grows or shrinks) takes the row with Own, changes it,
// and stores the result back with Set.
func (t *Table[T]) Set(i int, v T) {
	b, k := t.writable(i), i&(BlockRows-1)
	b.rows[k] = v
	b.owned |= 1 << k
}

// Append adds v as row Len. The caller hands v over: no sealed view may
// reference it.
func (t *Table[T]) Append(v T) {
	if t.n&(BlockRows-1) == 0 {
		t.blocks = append(t.blocks, &block[T]{gen: t.gen})
	}
	t.n++
	t.Set(t.n-1, v)
}

// writable returns the block holding row i, first replacing it by a
// copy of its header if a sealed view shares it.
func (t *Table[T]) writable(i int) *block[T] {
	if uint(i) >= uint(t.n) {
		panic("cow: row index out of range")
	}
	bi := i >> blockBits
	b := t.blocks[bi]
	if b.gen != t.gen {
		b = &block[T]{rows: b.rows, gen: t.gen}
		t.blocks[bi] = b
	}
	return b
}

// Seal returns a view of the table as it is now: O(Len/BlockRows)
// pointer copies. The writer's later changes never reach the view.
// Nothing may write through the view; it is read with Len, Get, Blocks
// and Block.
func (t *Table[T]) Seal() Table[T] {
	t.gen++
	return Table[T]{n: t.n, gen: t.gen, blocks: slices.Clone(t.blocks), clone: t.clone}
}

package simstore

// cells is the copy-on-write machinery both exact stores keep their
// scores in. The payload is one flat float64 array owned by the writer's
// embedded view (dense: the n×n matrix; packed: the n(n+1)/2 triangle),
// double-buffered once the store has been sealed.
//
// A store that is never sealed holds one buffer and pays one branch per
// write. Its first Seal arms the machinery: from then on every write
// logs its offset, and a sealed view holds the front buffer, so the
// first write after a Seal flips — it copies the logged cells into the
// back buffer, the one no current view reads, and swaps the two in the
// writer's view. The back buffer is then exactly as current as the
// front the views keep, so a warm writer ping-pongs between two fixed
// buffers, copying per commit only the cells the previous commit wrote.
//
// The back buffer is the previous front, so it may still be pinned by
// the second-newest view; an MVCC facade checks RecyclesBufferOf and
// calls AbandonBack while a reader is still inside such a view.
type cells struct {
	// front points at the writer view's payload slice: the buffer reads
	// and writes go to, which a flip re-aims in place.
	front *[]float64
	// back is the other buffer: nil until the first flip and after
	// AbandonBack.
	back []float64
	// log holds the offset of every cell written since back was last
	// the front, duplicates included. Unused while stale.
	log []int
	// budget is how many more offsets touch may append before it must
	// take the slow path: the log's remaining room after a flip, and 0
	// whenever a flip is pending or back is wholly stale.
	budget int

	// armed routes writes through touch: set by the first Seal.
	armed bool
	// cow means the latest sealed view holds the front buffer: the next
	// write flips first.
	cow bool
	// stale means back is wholly stale (an overrun log or a full
	// rewrite): the next flip copies every cell, as it does into a
	// freshly allocated back.
	stale bool
}

// logCellsPerCopy bounds the offset log: once it holds more than 1/8 of
// the payload's cells, scattering them one by one costs about what one
// memmove of the whole buffer does, so the log is dropped and the next
// flip copies everything.
const logCellsPerCopy = 8

// seal arms the copy-on-write machinery: the caller's sealed view now
// shares the front buffer.
func (c *cells) seal() {
	c.armed = true
	c.cow = true
	c.budget = 0
}

// touch logs a write to cell off of an armed payload. While the log has
// budget left that is one append, inlined into the stores' write
// methods; touchSlow takes every other case.
//
//simrank:noalloc
func (c *cells) touch(off int) {
	if c.budget == 0 {
		c.touchSlow(off)
		return
	}
	c.budget--
	c.log = append(c.log, off)
}

// touchSlow flips if a sealed view holds the front. Otherwise the log
// is overrun or back is already wholly stale, so it drops the log until
// the next flip copies everything.
func (c *cells) touchSlow(off int) {
	if c.cow {
		c.flip()
		c.touch(off)
		return
	}
	c.log = c.log[:0]
	c.stale = true
}

// flip brings back up to date — every cell when it is stale, otherwise
// just the logged ones — and makes it the front.
func (c *cells) flip() {
	front := *c.front
	if c.back == nil {
		c.back = make([]float64, len(front))
		c.stale = true
	}
	if c.stale {
		copy(c.back, front)
	} else {
		for _, off := range c.log {
			c.back[off] = front[off]
		}
	}
	c.log = c.log[:0]
	c.budget = len(front) / logCellsPerCopy
	c.stale = false
	*c.front, c.back = c.back, front
	c.cow = false
}

// rewrite readies the front buffer for a caller about to overwrite it
// in full: if a sealed view holds it, the buffers swap without syncing,
// since every cell is about to change. Either way the back buffer is
// then wholly stale.
func (c *cells) rewrite() {
	if c.cow {
		if c.back == nil {
			c.back = make([]float64, len(*c.front))
		}
		*c.front, c.back = c.back, *c.front
		c.cow = false
	}
	c.log = c.log[:0]
	c.budget = 0
	c.stale = true
}

// RecyclesBufferOf reports whether the sealed view shares the buffer
// the receiver's next flip would write into — the exact test an MVCC
// facade needs before recycling: only a straggling reader on THIS
// buffer forces an AbandonBack; stragglers on older, already-orphaned
// buffers, on another store generation or on another backend are
// harmless.
func (c *cells) RecyclesBufferOf(view View) bool {
	var front []float64
	switch v := view.(type) {
	case *DenseView:
		front = v.m.Data
	case *PackedView:
		front = v.tri
	}
	return len(front) > 0 && len(front) == len(c.back) && &front[0] == &c.back[0]
}

// DoubleBuffered reports whether the second buffer is currently held
// (false before the first flip and after AbandonBack) — observability
// for tests and memory accounting.
func (c *cells) DoubleBuffered() bool { return c.back != nil }

// AbandonBack detaches the second buffer without touching it, leaving it
// to the garbage collector once the sealed views referencing it drain.
// The MVCC facade calls this instead of blocking the writer when a
// long-running reader (an O(n²) Similarities copy, a snapshot) still
// pins the buffer the next flip would recycle; the following flip
// allocates a fresh one and copies every cell into it.
func (c *cells) AbandonBack() { c.back = nil }

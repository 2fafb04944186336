// Deliberate dirtyrows violations plus the paired shapes. The harness
// type-checks this directory as repro/internal/core, the one package
// the analyzer guards. The store interface is modeled locally: the
// analyzer keys on the AddSym method set, not on an import.
package core

// SimStore models the similarity store interface by method set.
type SimStore interface {
	Add(i, j int, v float64)
	AddSym(i, j int, v float64)
	Set(i, j int, v float64)
}

type tracker struct{ dirty []int }

func (t *tracker) markDirty(r int) { t.dirty = append(t.dirty, r) }

// A store write with no dirty-row report on its path serves stale
// cached top-k results.
func writeBad(s SimStore, i, j int, v float64) {
	s.AddSym(i, j, v) // want "store write AddSym without dirty-row reporting"
}

// Report in the same block: paired.
func writeGood(s SimStore, t *tracker, i, j int, v float64) {
	s.AddSym(i, j, v)
	t.markDirty(i)
	t.markDirty(j)
}

// Report dominating the write: paired even across blocks.
func writeDominated(s SimStore, t *tracker, i, j int, v float64, hot bool) {
	t.markDirty(i)
	t.markDirty(j)
	if hot {
		s.Set(i, j, v)
	}
}

// A report inside one branch does not cover a write in another.
func writeBranchy(s SimStore, t *tracker, i, j int, v float64, hot bool) {
	if hot {
		t.markDirty(i)
	} else {
		s.Set(i, j, v) // want "store write Set without dirty-row reporting"
	}
}

// There is no opt-out: a bulk loader that writes without reporting is
// reported too.
func bulkLoad(s SimStore, n int) {
	for i := 0; i < n; i++ {
		s.Set(i, i, 1) // want "store write Set without dirty-row reporting"
	}
}

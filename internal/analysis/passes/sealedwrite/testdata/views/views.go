// Deliberate sealedwrite violations plus the idioms the analyzer must
// accept. Type-checked as a repro-prefixed package by the test harness;
// never built by the go tool.
package fixture

import "sync/atomic"

// Snapshot is sealed by construction (its name is on the analyzer's
// sealed-type list), like the engine's view types.
type Snapshot struct {
	vals map[int]float64
	refs atomic.Int64
}

func (s *Snapshot) Set(i int, v float64) { s.vals[i] = v }
func (s *Snapshot) At(i int) float64     { return s.vals[i] }

// Table is NOT sealed by name; only values flowing from Seal() are.
type Table struct{ vals []float64 }

func (t *Table) At(i int) float64     { return t.vals[i] }
func (t *Table) Set(i int, v float64) { t.vals[i] = v }
func (t *Table) Seal() *Table         { return t }

// The store write path: an update, a recompute (which also takes
// ApplyBatch's crossover batch) and the worker knob.
func (t *Table) Update(i int) error     { t.vals[i]++; return nil }
func (t *Table) Recompute(batch []int)  { t.vals = t.vals[:0] }
func (t *Table) SetWorkers(workers int) {}

func sealedFlow(t *Table) {
	v := t.Seal()
	v.Set(1, 0.5) // want "Set on a sealed value"
	u := v
	u.Set(2, 0.5)         // want "Set on a sealed value"
	t.Seal().Set(3, 0.5)  // want "Set on a sealed value"
	_ = v.Update(1)       // want "Update on a sealed value"
	v.Recompute(nil)      // want "Recompute on a sealed value"
	v.Recompute([]int{1}) // want "Recompute on a sealed value"
	v.SetWorkers(2)       // want "SetWorkers on a sealed value"
}

func sealedByType(s *Snapshot) {
	s.Set(1, 0.5) // want "Set on a sealed value"
	_ = s.At(1)
}

// Writes to a never-sealed Table are the writer's business.
func writerPath(t *Table) {
	t.Set(1, 0.5)
	_ = t.At(1)
	_ = t.Update(1)
	t.Recompute(nil)
	t.SetWorkers(2)
}

// Atomic counters on a sealed view are interior-mutable by design.
func pin(s *Snapshot) { s.refs.Add(1) }

// Copy-on-write helpers that build the next generation opt out.
//
//simrank:sealsafe
func cowPatch(s *Snapshot, i int, v float64) { s.Set(i, v) }

package cow

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// rowLen is the payload length of every test row.
const rowLen = 4

// frozen is a sealed view together with a deep copy of the rows it must
// keep serving.
type frozen struct {
	view Table[[]int]
	want [][]int
}

func deepCopy(rows [][]int) [][]int {
	out := make([][]int, len(rows))
	for i, r := range rows {
		out[i] = slices.Clone(r)
	}
	return out
}

// requireRows checks every read path of t against want.
func requireRows(t *testing.T, tab *Table[[]int], want [][]int, label string) {
	t.Helper()
	if tab.Len() != len(want) {
		t.Fatalf("%s: Len = %d, want %d", label, tab.Len(), len(want))
	}
	if got, blocks := tab.Blocks(), (len(want)+BlockRows-1)/BlockRows; got != blocks {
		t.Fatalf("%s: Blocks = %d, want %d", label, got, blocks)
	}
	for i, w := range want {
		if got := tab.Get(i); !slices.Equal(got, w) {
			t.Fatalf("%s: Get(%d) = %v, want %v", label, i, got, w)
		}
	}
	i := 0
	for b := range tab.Blocks() {
		for _, row := range tab.Block(b) {
			if !slices.Equal(row, want[i]) {
				t.Fatalf("%s: Block(%d) row %d = %v, want %v", label, b, i, row, want[i])
			}
			i++
		}
	}
	if i != len(want) {
		t.Fatalf("%s: blocks hold %d rows, want %d", label, i, len(want))
	}
}

// Random Own/Set/Append/Seal sequences: after every step the writer
// reads its own writes and every view still reads the rows it was
// sealed with, across block boundaries and partly filled last blocks.
func TestRandomOpsMatchPlainCopies(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n) + 1))
			tab := New(slices.Clone[[]int])
			var ref [][]int
			fresh := func() []int {
				r := make([]int, rowLen)
				for k := range r {
					r[k] = rng.Int()
				}
				return r
			}
			for range n {
				r := fresh()
				tab.Append(r)
				ref = append(ref, slices.Clone(r))
			}
			var views []frozen
			for step := 0; step < 600; step++ {
				switch op := rng.Intn(10); {
				case op < 5 && len(ref) > 0: // Own and write one cell
					i, k, v := rng.Intn(len(ref)), rng.Intn(rowLen), rng.Int()
					tab.Own(i)[k] = v
					ref[i][k] = v
				case op < 7 && len(ref) > 0:
					i, r := rng.Intn(len(ref)), fresh()
					tab.Set(i, r)
					ref[i] = slices.Clone(r)
				case op < 9:
					r := fresh()
					tab.Append(r)
					ref = append(ref, slices.Clone(r))
				default:
					views = append(views, frozen{view: tab.Seal(), want: deepCopy(ref)})
				}
				requireRows(t, &tab, ref, fmt.Sprintf("step %d writer", step))
				for v := range views {
					requireRows(t, &views[v].view, views[v].want, fmt.Sprintf("step %d view %d", step, v))
				}
			}
			if len(views) == 0 {
				t.Fatal("the sequence never sealed")
			}
		})
	}
}

// An Append into a shared, partly filled last block must leave the
// view's copy of that block as it was.
func TestAppendIntoSharedPartialBlock(t *testing.T) {
	tab := New(slices.Clone[[]int])
	for i := range 65 {
		tab.Append([]int{i})
	}
	view := tab.Seal()
	tab.Append([]int{65})
	tab.Own(64)[0] = -64
	tab.Set(0, []int{-1})
	if view.Len() != 65 || view.Blocks() != 2 || len(view.Block(1)) != 1 {
		t.Fatalf("view shape changed: Len %d, Blocks %d", view.Len(), view.Blocks())
	}
	if view.Get(64)[0] != 64 || view.Get(0)[0] != 0 {
		t.Fatalf("view rows changed: row 0 %v, row 64 %v", view.Get(0), view.Get(64))
	}
	if tab.Len() != 66 || tab.Get(65)[0] != 65 || tab.Get(64)[0] != -64 || tab.Get(0)[0] != -1 {
		t.Fatalf("writer rows wrong: row 0 %v, row 64 %v, row 65 %v", tab.Get(0), tab.Get(64), tab.Get(65))
	}
}

// Own clones a row at most once per seal, and never on a table that was
// never sealed or for a row Set or Append handed over.
func TestOwnClonesOncePerSeal(t *testing.T) {
	clones := 0
	tab := New(func(r []int) []int { clones++; return slices.Clone(r) })
	for i := range 130 {
		tab.Append([]int{i})
	}
	tab.Own(3)[0] = 3
	tab.Own(129)[0] = 129
	if clones != 0 {
		t.Fatalf("never-sealed table cloned %d rows", clones)
	}
	tab.Seal()
	for range 3 {
		tab.Own(3)[0]++
		tab.Own(70)[0]++
	}
	tab.Set(71, []int{0})
	tab.Own(71)[0]++
	if clones != 2 {
		t.Fatalf("cloned %d rows for 2 shared rows touched after one seal, want 2", clones)
	}
	tab.Seal()
	tab.Own(3)[0]++
	if clones != 3 {
		t.Fatalf("cloned %d rows after a second seal, want 3", clones)
	}
}

// A seal copies the block pointers and nothing else: one allocation
// whatever the table holds.
func TestSealAllocatesOnce(t *testing.T) {
	tab := New(slices.Clone[[]int])
	for i := range 1000 {
		tab.Append([]int{i})
	}
	if allocs := testing.AllocsPerRun(100, func() { tab.Seal() }); allocs != 1 {
		t.Fatalf("Seal allocated %v times, want 1", allocs)
	}
}

func TestGetOutOfRangePanics(t *testing.T) {
	tab := New(slices.Clone[[]int])
	tab.Append([]int{0})
	for _, i := range []int{-1, 1, 63} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) on a 1-row table did not panic", i)
				}
			}()
			tab.Get(i)
		}()
	}
}

// Readers of sealed views race a writer that owns, sets, appends and
// seals (run under -race): every view keeps reading its sealed rows.
func TestConcurrentReaders(t *testing.T) {
	tab := New(slices.Clone[[]int])
	var ref [][]int
	for i := range 130 {
		tab.Append([]int{i, i})
		ref = append(ref, []int{i, i})
	}
	var wg sync.WaitGroup
	views := make(chan frozen, 8)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range views {
				for range 20 {
					for i, w := range f.want {
						if got := f.view.Get(i); !slices.Equal(got, w) {
							t.Errorf("view row %d = %v, want %v", i, got, w)
							return
						}
					}
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 2000; step++ {
		switch i := rng.Intn(len(ref)); rng.Intn(8) {
		case 0:
			views <- frozen{view: tab.Seal(), want: deepCopy(ref)}
		case 1:
			tab.Append([]int{step, step})
			ref = append(ref, []int{step, step})
		case 2:
			tab.Set(i, []int{-step, step})
			ref[i] = []int{-step, step}
		default:
			tab.Own(i)[1] = step
			ref[i][1] = step
		}
	}
	close(views)
	wg.Wait()
}

package simrank

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/graph"
)

// snapshotBytes serializes an engine over the given graph for corpus use.
func snapshotBytes(t testing.TB, n int, edges []Edge, opts Options) []byte {
	t.Helper()
	e, err := NewEngine(n, edges, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadSnapshot feeds arbitrary bytes to ReadSnapshot. The parser must
// never panic and must keep its allocations proportional to the input (a
// tiny input claiming huge dimensions has to fail, not over-allocate —
// the 1 MiB inputs below would otherwise be free to demand petabytes).
// When the bytes do parse, writing the restored engine back out must be
// deterministic and stable: write → read → write is byte-identical, and
// the re-read engine answers every pair bit for bit (by Similarity, which
// approx serves too; its Similarities is nil).
func FuzzReadSnapshot(f *testing.F) {
	// Valid corpus: the empty engine, isolated nodes only (with
	// non-default options and the ignored flags bit 0 for header
	// variety), the paper's Fig-1 graph, and an approx engine over it.
	f.Add(snapshotBytes(f, 0, nil, Options{}))
	f.Add(withSnapshotFlags(snapshotBytes(f, 3, nil, Options{C: 0.8, K: 7}), 1))
	fig1, _ := graph.Fig1Graph()
	valid := snapshotBytes(f, fig1.N(), fig1.Edges(), Options{})
	f.Add(valid)
	// Corrupt corpus: truncations, a bit flip in the matrix payload, and
	// a length-corrupted header claiming 2²⁴ nodes in a few dozen bytes.
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:27])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	huge := append([]byte(nil), valid[:32]...)
	binary.LittleEndian.PutUint32(huge[24:], 1<<24) // n
	binary.LittleEndian.PutUint32(huge[28:], 0)     // m
	f.Add(huge)
	f.Add(snapshotBytes(f, fig1.N(), fig1.Edges(), Options{Backend: BackendApprox, ApproxWalks: 16}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		e, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := e.WriteSnapshot(&first); err != nil {
			t.Fatalf("restored engine failed to re-serialize: %v", err)
		}
		e2, err := ReadSnapshot(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("own snapshot output rejected: %v", err)
		}
		if e2.N() != e.N() || e2.M() != e.M() {
			t.Fatalf("round trip changed graph: %d/%d vs %d/%d", e2.N(), e2.M(), e.N(), e.M())
		}
		if e2.Options() != e.Options() {
			t.Fatalf("round trip changed options: %+v vs %+v", e2.Options(), e.Options())
		}
		for a := 0; a < e.N(); a++ {
			for b := 0; b < e.N(); b++ {
				if got, want := e2.Similarity(a, b), e.Similarity(a, b); got != want {
					t.Fatalf("round trip moved s(%d,%d) from %v to %v", a, b, want, got)
				}
			}
		}
		var second bytes.Buffer
		if err := e2.WriteSnapshot(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("snapshot serialization is not stable across a round trip")
		}
	})
}

// TestReadSnapshotBoundsAllocations pins the over-allocation guard the
// fuzzer relies on: a header claiming the maximum node count backed by no
// payload must error out instead of attempting the n² (here ≈ 2 PiB)
// matrix allocation, which used to panic the process.
func TestReadSnapshotBoundsAllocations(t *testing.T) {
	valid := snapshotBytes(t, 0, nil, Options{})
	data := append([]byte(nil), valid[:32]...)
	binary.LittleEndian.PutUint32(data[24:], 1<<24) // n = maxNodes
	binary.LittleEndian.PutUint32(data[28:], 0)     // m = 0
	if _, err := ReadSnapshot(bytes.NewReader(data)); err == nil {
		t.Fatal("want error for length-corrupted header")
	}
	// Same with an m large enough that m×8 bytes dwarf the input.
	data = append([]byte(nil), valid[:32]...)
	binary.LittleEndian.PutUint32(data[24:], 100)
	binary.LittleEndian.PutUint32(data[28:], 1<<27)
	if _, err := ReadSnapshot(bytes.NewReader(data)); err == nil {
		t.Fatal("want error for edge-count-corrupted header")
	}
}

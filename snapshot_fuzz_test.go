package simrank

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
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
	// a v3 header claiming 2²⁴ nodes in 44 bytes.
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:27])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add(snapshotHeader(valid, 1<<24, 0))
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

// snapshotHeader returns the 44-byte v3 header of src — magic, version,
// C, K, flags, backend and epoch — with n and m replaced.
func snapshotHeader(src []byte, n, m uint32) []byte {
	data := append([]byte(nil), src[:44]...)
	binary.LittleEndian.PutUint32(data[36:], n)
	binary.LittleEndian.PutUint32(data[40:], m)
	return data
}

// TestReadSnapshotBoundsAllocations pins the guards a corrupt header
// meets, each by the error it raises: n or m past its plausibility bound
// is rejected outright, and plausible dimensions backed by no payload
// fail in the edge or the matrix read, having allocated in proportion to
// the bytes consumed rather than to m or to n² (here ≈ 2 PiB), which
// once panicked the process.
func TestReadSnapshotBoundsAllocations(t *testing.T) {
	valid := snapshotBytes(t, 0, nil, Options{})
	for _, tc := range []struct {
		name    string
		n, m    uint32
		wantErr string
	}{
		{"n-implausible", 1<<24 + 1, 0, "dimensions implausible"},
		{"m-implausible", 100, 1<<28 + 1, "dimensions implausible"},
		{"n-without-matrix", 1 << 24, 0, "snapshot matrix"},
		{"m-without-edges", 100, 1 << 27, "snapshot edge 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := snapshotHeader(valid, tc.n, tc.m)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ReadSnapshot(bytes.NewReader(data))
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("n=%d m=%d: error %v, want one naming %q", tc.n, tc.m, err, tc.wantErr)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Fatalf("n=%d m=%d: allocated %d B before failing, want < 1 MiB", tc.n, tc.m, alloc)
			}
		})
	}
}

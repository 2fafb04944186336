package simrank

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/matrix"
)

func TestSnapshotRoundTrip(t *testing.T) {
	e := mustEngine(t, 6, []Edge{
		{From: 0, To: 2}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 4, To: 3},
	}, Options{C: 0.8, K: 20})
	if _, err := e.Insert(5, 2); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != e.N() || got.M() != e.M() {
		t.Fatalf("graph mismatch: %d/%d vs %d/%d", got.N(), got.M(), e.N(), e.M())
	}
	if o := got.Options(); o.C != 0.8 || o.K != 20 {
		t.Fatalf("options mismatch: %+v", o)
	}
	if d := matrix.MaxAbsDiff(got.Similarities(), e.Similarities()); d != 0 {
		t.Fatalf("similarities drifted %g through snapshot", d)
	}
	// The restored engine keeps working incrementally.
	if _, err := got.Delete(5, 2); err != nil {
		t.Fatal(err)
	}
}

// withSnapshotFlags returns a copy of a snapshot with its flags word set
// to flags and its CRC trailer recomputed to match.
func withSnapshotFlags(data []byte, flags uint32) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[20:], flags) // magic, version, C, K
	body := out[:len(out)-4]
	binary.LittleEndian.PutUint32(out[len(body):], crc32.ChecksumIEEE(body))
	return out
}

// Bit 0 of the flags word once selected Inc-uSR. A v3 file that sets it
// restores and updates exactly like the same file with the bit clear:
// Inc-SR is the only update algorithm.
func TestSnapshotIgnoresRetiredFlagBit(t *testing.T) {
	g := randTestGraph(rand.New(rand.NewSource(1)), 30, 120)
	ins := absentEdges(g, 1, 1)[0]
	for _, backend := range []Backend{BackendDense, BackendPacked} {
		t.Run(string(backend), func(t *testing.T) {
			plain := snapshotBytes(t, g.N(), g.Edges(), Options{Backend: backend})
			if v := binary.LittleEndian.Uint32(plain[4:]); v != 3 {
				t.Fatalf("%s writes snapshot version %d, want 3", backend, v)
			}
			var scores [2]*matrix.Dense
			for i, data := range [][]byte{plain, withSnapshotFlags(plain, 1)} {
				e, err := ReadSnapshot(bytes.NewReader(data))
				if err != nil {
					t.Fatalf("flags bit %d: %v", i, err)
				}
				if _, err := e.Insert(ins.From, ins.To); err != nil {
					t.Fatal(err)
				}
				scores[i] = e.Similarities()
			}
			if d := matrix.MaxAbsDiff(scores[0], scores[1]); d != 0 {
				t.Fatalf("flags bit 0 moved the scores after one update by %g", d)
			}
		})
	}
}

func TestSnapshotRestoredEngineStaysExact(t *testing.T) {
	e := mustEngine(t, 5, []Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 3, To: 1}}, Options{C: 0.6, K: 40})
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Insert(4, 1); err != nil {
		t.Fatal(err)
	}
	fresh := mustEngine(t, 5, []Edge{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 3, To: 1}, {From: 4, To: 1},
	}, Options{C: 0.6, K: 40})
	if d := matrix.MaxAbsDiff(restored.Similarities(), fresh.Similarities()); d > 1e-9 {
		t.Fatalf("restored engine drifted %g after update", d)
	}
}

func TestSnapshotBadMagic(t *testing.T) {
	if _, err := ReadSnapshot(strings.NewReader("NOPExxxxxxxxxxxxxxxx")); err == nil {
		t.Fatal("want error for bad magic")
	}
}

func TestSnapshotTruncated(t *testing.T) {
	e := mustEngine(t, 4, []Edge{{From: 0, To: 1}}, Options{})
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{3, 10, buf.Len() / 2, buf.Len() - 2} {
		if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("want error for truncation at %d", cut)
		}
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	e := mustEngine(t, 4, []Edge{{From: 0, To: 1}, {From: 2, To: 1}}, Options{})
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one bit somewhere in the similarity payload (past header+edges).
	rng := rand.New(rand.NewSource(3))
	corrupted := 0
	for trial := 0; trial < 20; trial++ {
		pos := 40 + rng.Intn(len(data)-44)
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x10
		if _, err := ReadSnapshot(bytes.NewReader(mut)); err != nil {
			corrupted++
		}
	}
	if corrupted < 18 {
		t.Fatalf("only %d/20 corruptions detected", corrupted)
	}
}

// The writable approx tier must round-trip exactly: after a repair
// stream, write → read → write produces byte-identical snapshots, the
// epoch and repair generation carry through, and the restored engine
// answers bit-identically to the writer. The snapshot never stores walk
// rows — the walk set is a pure function of (graph, seed, budget), so
// restore rebuilds it and lands on the same bits the repairs did.
func TestSnapshotApproxRoundTripAfterRepairs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 12
	var edges []Edge
	for i := 0; i < 3*n; i++ {
		edges = append(edges, Edge{From: rng.Intn(n), To: rng.Intn(n)})
	}
	e := mustEngine(t, n, edges, Options{C: 0.6, K: 7, Backend: BackendApprox, ApproxWalks: 64, ApproxSeed: 5})
	for i := 0; i < 25; i++ {
		from, to := rng.Intn(e.N()), rng.Intn(e.N())
		var err error
		if e.HasEdge(from, to) {
			_, err = e.Delete(from, to)
		} else {
			_, err = e.Insert(from, to)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.AddNodes(2); err != nil {
		t.Fatal(err)
	}

	var b1 bytes.Buffer
	if err := e.WriteSnapshot(&b1); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Epoch() != e.Epoch() {
		t.Fatalf("epoch lost through snapshot: %d vs %d", restored.Epoch(), e.Epoch())
	}
	for a := 0; a < e.N(); a++ {
		for b := 0; b < e.N(); b++ {
			if got, want := restored.Similarity(a, b), e.Similarity(a, b); got != want {
				t.Fatalf("restored s(%d,%d) = %v, writer %v", a, b, got, want)
			}
		}
	}
	var b2 bytes.Buffer
	if err := restored.WriteSnapshot(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("write→read→write drifted: %d vs %d bytes, equal=%v", b1.Len(), b2.Len(), false)
	}
	// The restored engine keeps repairing — and stays bit-aligned with
	// the writer across the same post-restore update.
	up := Update{Edge: Edge{From: 0, To: e.N() - 1}, Insert: !e.HasEdge(0, e.N()-1)}
	if _, err := e.Apply(up); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Apply(up); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Similarity(1, e.N()-1), e.Similarity(1, e.N()-1); got != want {
		t.Fatalf("post-restore repair diverged: %v vs %v", got, want)
	}
}

// A live store and a sealed view share one serializer: at every epoch
// of an update stream, Engine.WriteSnapshot and the snapshot of a
// ConcurrentEngine's published view are byte-identical on each backend.
func TestSnapshotOfViewMatchesEngine(t *testing.T) {
	for _, backend := range []Backend{BackendDense, BackendPacked, BackendApprox} {
		t.Run(string(backend), func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			const n = 10
			var edges []Edge
			for i := 0; i < 2*n; i++ {
				edges = append(edges, Edge{From: rng.Intn(n), To: rng.Intn(n)})
			}
			opts := Options{K: 6, Backend: backend, ApproxWalks: 16}
			e := mustEngine(t, n, edges, opts)
			c, err := NewConcurrentEngine(n, edges, opts)
			if err != nil {
				t.Fatal(err)
			}
			requireSame := func(label string) {
				t.Helper()
				var live, view bytes.Buffer
				if err := e.WriteSnapshot(&live); err != nil {
					t.Fatal(err)
				}
				if err := c.WriteSnapshot(&view); err != nil {
					t.Fatal(err)
				}
				if c.Epoch() != e.Epoch() || !bytes.Equal(live.Bytes(), view.Bytes()) {
					t.Fatalf("%s: view snapshot at epoch %d (%d B) differs from engine's at epoch %d (%d B)",
						label, c.Epoch(), view.Len(), e.Epoch(), live.Len())
				}
			}
			requireSame("fresh")
			for step := 0; step < 30; step++ {
				switch step {
				case 10:
					if _, err := e.AddNodes(2); err != nil {
						t.Fatal(err)
					}
					if _, err := c.AddNodes(2); err != nil {
						t.Fatal(err)
					}
				case 20:
					e.Recompute()
					if err := c.Recompute(); err != nil {
						t.Fatal(err)
					}
				default:
					from, to := rng.Intn(e.N()), rng.Intn(e.N())
					up := Update{Edge: Edge{From: from, To: to}, Insert: !e.HasEdge(from, to)}
					if _, err := e.Apply(up); err != nil {
						t.Fatal(err)
					}
					if _, err := c.Apply(up); err != nil {
						t.Fatal(err)
					}
				}
				requireSame(fmt.Sprintf("step %d", step))
			}
		})
	}
}

func TestSnapshotRejectsSillyHeader(t *testing.T) {
	e := mustEngine(t, 3, nil, Options{})
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Version bump must be rejected before any allocation.
	mut := append([]byte(nil), data...)
	mut[4] = 99
	if _, err := ReadSnapshot(bytes.NewReader(mut)); err == nil {
		t.Fatal("want error for unknown version")
	}
}

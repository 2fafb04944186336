package simrank

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/simstore"
)

// Snapshot format: a small length-prefixed binary layout with a CRC32
// trailer, so a long-lived engine (hours of folded updates) can be
// persisted and restored without recomputing the O(Kd'n²) batch step.
// The header is versioned per similarity-store backend:
//
// Version 1 — the dense backend, unchanged since the first release (old
// files restore forever):
//
//	magic "SIMR" | version=1 u32 | C f64 | K u32 | flags u32 |
//	n u32 | m u32 | m × (from u32, to u32) |
//	n² × f64 (row-major S) | crc32(IEEE) of everything above
//
// Version 2 — non-dense backends gain a backend id after the flags and a
// backend-specific payload after the edges:
//
//	magic "SIMR" | version=2 u32 | C f64 | K u32 | flags u32 |
//	backend u32 | n u32 | m u32 | m × (from u32, to u32) |
//	payload | crc32(IEEE)
//
//	backend 1 (packed): payload = n(n+1)/2 × f64, the upper triangle
//	  row-major — the file is ~half a dense snapshot, like the store.
//	backend 2 (approx): payload = walks u32 | seed u64; there is no
//	  matrix — the store is rebuilt from the graph on restore.
//
// Version 3 — the current write format for every backend: the backend
// id is always present (0 = dense now has a code) and the engine's
// epoch at serialization time follows it, so a boot that restores the
// snapshot knows exactly where in the write-ahead log to resume
// replay (records with epoch ≤ the header's are already inside the
// file; see internal/wal):
//
//	magic "SIMR" | version=3 u32 | C f64 | K u32 | flags u32 |
//	backend u32 | epoch u64 | n u32 | m u32 | m × (from u32, to u32) |
//	payload | crc32(IEEE)
//
// Version 4 — written only for the approx backend, now that it absorbs
// updates by incremental walk repair: the payload gains the repair
// -generation counter after the seed. The walks themselves are a pure
// function of (graph, seed, walks, K) — the derived-seed invariant — so
// the repaired walk set is persisted *by persisting the graph*: restore
// rebuilds walks bit-identical to the writer's repaired state, and only
// the generation counter needs carrying. Dense and packed keep writing
// v3 — their format did not change:
//
//	magic "SIMR" | version=4 u32 | C f64 | K u32 | flags u32 |
//	backend=2 u32 | epoch u64 | n u32 | m u32 | m × (from u32, to u32) |
//	walks u32 | seed u64 | repairGen u64 | crc32(IEEE)
//
// v1 and v2 files restore forever (with epoch 0 — they predate the
// WAL, so there is never a log tail above them); v3 approx files
// restore with repair generation 0.
//
// The flags word is written as 0 and ignored on restore. Its bit 0 once
// selected Inc-uSR for updates; a file that sets it restores and
// continues under Inc-SR, the only update algorithm.
const (
	snapshotMagic    = "SIMR"
	snapshotVersion  = 1
	snapshotVersion2 = 2
	snapshotVersion3 = 3
	snapshotVersion4 = 4

	backendCodeDense  = 0
	backendCodePacked = 1
	backendCodeApprox = 2
)

// WriteSnapshot serializes the engine's graph, options, epoch and
// similarity store to w in the version-3 format.
func (e *Engine) WriteSnapshot(w io.Writer) error {
	return writeSnapshotData(w, e.opts, e.epoch, e.g.N(), e.g.Edges(), e.s)
}

// writeSnapshotData is the backend-agnostic serializer behind both
// Engine.WriteSnapshot (live writer state) and the MVCC facade's
// view-based snapshot (sealed state at one epoch): it needs only the
// read surface, so a sealed store and graph snapshot serialize exactly
// like live ones. The recorded epoch is the WAL-replay floor a restore
// resumes from.
func writeSnapshotData(w io.Writer, opts Options, epoch uint64, n int, edges []graph.Edge, store simstore.View) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))

	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return fmt.Errorf("simrank: snapshot write: %w", err)
	}
	code := uint32(backendCodeDense)
	version := uint32(snapshotVersion3)
	switch opts.Backend {
	case BackendPacked:
		code = backendCodePacked
	case BackendApprox:
		code = backendCodeApprox
		// Only approx moved to v4 (repair-generation counter in the
		// payload); the exact backends' format is unchanged, so their
		// files stay readable by pre-v4 binaries.
		version = snapshotVersion4
	}
	hdr := []any{
		version,
		math.Float64bits(opts.C),
		uint32(opts.K),
		uint32(0), // flags
		code,
		epoch,
		uint32(n),
		uint32(len(edges)),
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("simrank: snapshot header: %w", err)
		}
	}
	for _, edge := range edges {
		if err := binary.Write(bw, binary.LittleEndian, uint32(edge.From)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(edge.To)); err != nil {
			return err
		}
	}
	if err := writeStorePayload(bw, store); err != nil {
		return err
	}
	// Flush the payload so the CRC covers exactly the payload bytes, then
	// append the (unhashed) trailer.
	if err := bw.Flush(); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// walkParams is the approx payload's read surface, which a live store
// and a sealed view share.
type walkParams interface {
	Walks() int
	Seed() int64
	RepairGen() uint64
}

// writeStorePayload emits the backend-specific tail of the snapshot.
func writeStorePayload(bw *bufio.Writer, store simstore.View) error {
	writeFloats := func(vals []float64) error {
		var buf [8]byte
		for _, v := range vals {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			if _, err := bw.Write(buf[:]); err != nil {
				return err
			}
		}
		return nil
	}
	switch store.Backend() {
	case BackendDense, BackendPacked:
		// A dense row aliases the row-major matrix, and the packed row
		// segments are exactly the upper triangle in the payload's
		// row-major order.
		row := store.ConcurrentRow
		if store.Backend() == BackendPacked {
			row = store.UpperRow
		}
		for i := 0; i < store.N(); i++ {
			if err := writeFloats(row(i)); err != nil {
				return err
			}
		}
		return nil
	case BackendApprox:
		s := store.(walkParams)
		if err := binary.Write(bw, binary.LittleEndian, uint32(s.Walks())); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint64(s.Seed())); err != nil {
			return err
		}
		return binary.Write(bw, binary.LittleEndian, s.RepairGen())
	}
	return fmt.Errorf("simrank: snapshot: unknown backend %q", store.Backend())
}

// ReadSnapshot restores an engine previously written by WriteSnapshot.
// The similarity matrix is trusted after the CRC check, not recomputed;
// use Recompute to rebuild it from the graph if desired. A dense matrix
// is made exactly symmetric on the way in, its lower triangle taking the
// upper one's values, since the exact stores' updates depend on it.
// The exact stores' compute workspace (transition matrices, update
// scratch) is not part of the snapshot — a restored store rebuilds it
// lazily from the graph on its first update or recompute.
// Options.Workers and Options.TopKCacheRows are not persisted either:
// a restored engine uses the GOMAXPROCS default with the query cache
// off unless ConfigureRestored sets them (starting the cache cold is
// also what keeps a restore trivially consistent — there is nothing
// stale to invalidate).
//
// ReadSnapshot is safe on hostile input. Until the checksum verifies,
// its allocations are bounded by the bytes actually consumed, never by
// the header's claimed dimensions: edges and matrix entries are parsed
// into incrementally grown buffers, so a 50-byte input claiming 2²⁴
// nodes fails with an error long before any n-sized allocation happens.
// On the exact backends the verified payload then holds the n² scores
// the store is built from, so a restore costs what its input holds. An
// approx payload holds no walks, only their parameters: a verified
// approx file costs what NewEngine costs for the header's n, walk
// budget W and K — the n·W·(K+1) stored walk positions — however short
// the file is.
func ReadSnapshot(r io.Reader) (*Engine, error) {
	// The tee sits *above* the buffered reader so the CRC sees exactly
	// the bytes the parser consumes — bufio read-ahead stays out of it.
	br := bufio.NewReader(r)
	crc := crc32.NewIEEE()
	tee := io.TeeReader(br, crc)

	magic := make([]byte, 4)
	if _, err := io.ReadFull(tee, magic); err != nil {
		return nil, fmt.Errorf("simrank: snapshot magic: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("simrank: bad snapshot magic %q", magic)
	}
	var (
		version, k, flags, n, m uint32
		cBits, epoch            uint64
	)
	for _, p := range []any{&version, &cBits, &k, &flags} {
		if err := binary.Read(tee, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("simrank: snapshot header: %w", err)
		}
	}
	if version < snapshotVersion || version > snapshotVersion4 {
		return nil, fmt.Errorf("simrank: unsupported snapshot version %d", version)
	}
	backend := BackendDense
	if version >= snapshotVersion2 {
		var code uint32
		if err := binary.Read(tee, binary.LittleEndian, &code); err != nil {
			return nil, fmt.Errorf("simrank: snapshot header: %w", err)
		}
		switch code {
		case backendCodeDense:
			// v2 writers never emitted a dense code; only v3 files carry it.
			if version == snapshotVersion2 {
				return nil, fmt.Errorf("simrank: v2 snapshot names unknown backend code %d", code)
			}
		case backendCodePacked:
			backend = BackendPacked
		case backendCodeApprox:
			backend = BackendApprox
		default:
			return nil, fmt.Errorf("simrank: snapshot names unknown backend code %d", code)
		}
	}
	if version >= snapshotVersion3 {
		// The serialization-time epoch: the floor WAL replay resumes from.
		if err := binary.Read(tee, binary.LittleEndian, &epoch); err != nil {
			return nil, fmt.Errorf("simrank: snapshot header: %w", err)
		}
	}
	for _, p := range []any{&n, &m} {
		if err := binary.Read(tee, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("simrank: snapshot header: %w", err)
		}
	}
	c := math.Float64frombits(cBits)
	if c <= 0 || c >= 1 || k < 1 {
		return nil, fmt.Errorf("simrank: snapshot has invalid options C=%v K=%d", c, k)
	}
	const maxNodes = 1 << 24 // sanity bound against corrupt headers
	if n > maxNodes || m > maxNodes*16 {
		return nil, fmt.Errorf("simrank: snapshot dimensions implausible (n=%d m=%d)", n, m)
	}
	// Growth cap for the parse buffers: large initial capacities must be
	// earned by input actually read, so a corrupt header can make the read
	// fail but not balloon.
	const chunk = 4096
	edges := make([]graph.Edge, 0, min(int(m), chunk))
	var pair [8]byte
	for i := uint32(0); i < m; i++ {
		if _, err := io.ReadFull(tee, pair[:]); err != nil {
			return nil, fmt.Errorf("simrank: snapshot edge %d: %w", i, err)
		}
		from := binary.LittleEndian.Uint32(pair[:4])
		to := binary.LittleEndian.Uint32(pair[4:])
		if from >= n || to >= n {
			return nil, fmt.Errorf("simrank: snapshot edge %d out of range", i)
		}
		edges = append(edges, graph.Edge{From: int(from), To: int(to)})
	}
	// The store payload, still parsed into input-bounded buffers.
	var (
		vals            []float64
		approxWalks     uint32
		approxSeed      uint64
		approxRepairGen uint64
		payloadTotal    int
	)
	switch backend {
	case BackendDense:
		payloadTotal = int(n) * int(n)
	case BackendPacked:
		payloadTotal = int(n) * (int(n) + 1) / 2
	}
	if backend == BackendApprox {
		if err := binary.Read(tee, binary.LittleEndian, &approxWalks); err != nil {
			return nil, fmt.Errorf("simrank: snapshot approx params: %w", err)
		}
		if err := binary.Read(tee, binary.LittleEndian, &approxSeed); err != nil {
			return nil, fmt.Errorf("simrank: snapshot approx params: %w", err)
		}
		// The same bound construction enforces, so every persisted budget
		// restores.
		if approxWalks == 0 || approxWalks > simstore.MaxWalks {
			return nil, fmt.Errorf("simrank: snapshot approx walk budget %d implausible", approxWalks)
		}
		if version >= snapshotVersion4 {
			if err := binary.Read(tee, binary.LittleEndian, &approxRepairGen); err != nil {
				return nil, fmt.Errorf("simrank: snapshot approx params: %w", err)
			}
		}
	} else {
		vals = make([]float64, 0, min(payloadTotal, chunk))
		buf := make([]byte, 8*chunk)
		for len(vals) < payloadTotal {
			want := min(payloadTotal-len(vals), chunk)
			if _, err := io.ReadFull(tee, buf[:8*want]); err != nil {
				return nil, fmt.Errorf("simrank: snapshot matrix: %w", err)
			}
			for i := 0; i < want; i++ {
				v := math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("simrank: snapshot matrix entry %d is %v", len(vals), v)
				}
				vals = append(vals, v)
			}
		}
	}
	want := crc.Sum32() // payload fully consumed; trailer not yet read
	var got uint32
	if err := binary.Read(br, binary.LittleEndian, &got); err != nil {
		return nil, fmt.Errorf("simrank: snapshot checksum: %w", err)
	}
	if got != want {
		return nil, fmt.Errorf("simrank: snapshot checksum mismatch (corrupt or truncated)")
	}
	// Payload verified: now the O(n) structures are justified by the
	// payload bytes that actually arrived.
	g := graph.New(int(n))
	for _, e := range edges {
		if !g.AddEdge(e.From, e.To) {
			return nil, fmt.Errorf("simrank: snapshot duplicate edge %d→%d", e.From, e.To)
		}
	}
	opts := Options{C: c, K: int(k), Backend: backend}
	var store simstore.Store
	switch backend {
	case BackendDense:
		// Files from builds whose batch kernel did not mirror S hold two
		// triangles up to ~1e-17 apart.
		m := &matrix.Dense{Rows: int(n), Cols: int(n), Data: vals}
		m.MirrorUpper()
		store = simstore.WrapDense(m)
	case BackendPacked:
		p := simstore.NewPacked(int(n))
		for i, row := 0, 0; row < int(n); row++ {
			seg := p.UpperRow(row)
			copy(seg, vals[i:i+len(seg)])
			i += len(seg)
		}
		store = p
	case BackendApprox:
		opts.ApproxWalks = int(approxWalks)
		opts.ApproxSeed = int64(approxSeed)
		// The rebuild reproduces the serialized walk set bit-identically
		// (walks are a pure function of graph and seed); only the repair
		// -generation counter has to be carried explicitly.
		a, err := simstore.NewApprox(g, c, int(k), opts.ApproxWalks, opts.ApproxSeed)
		if err != nil {
			return nil, fmt.Errorf("simrank: snapshot approx store: %w", err)
		}
		a.SetRepairGen(approxRepairGen)
		store = a
	}
	return &Engine{readPath: readPath[simstore.Store]{s: store, epoch: epoch}, opts: opts.withDefaults(), g: g}, nil
}

// SnapshotWriter is anything that can serialize itself in the snapshot
// format; *Engine and *ConcurrentEngine both qualify.
type SnapshotWriter interface {
	WriteSnapshot(w io.Writer) error
}

// fileSync and dirSync are the fsync seams, swappable in tests to
// inject sync failures (a real power-loss test being unavailable to a
// unit suite). dirSync flushes a DIRECTORY's entries — the half of
// atomic-rename durability that is easy to forget: rename(2) is atomic
// in the namespace, but the new directory entry itself lives in the
// parent directory's data and can vanish on power loss until the
// directory is fsynced.
var (
	fileSync = func(f *os.File) error { return f.Sync() }
	dirSync  = func(dir string) error {
		d, err := os.Open(dir)
		if err != nil {
			return err
		}
		err = fileSync(d)
		if closeErr := d.Close(); err == nil {
			// A directory-handle Close failure is a durability signal
			// like any other; do not let a deferred discard eat it.
			err = closeErr
		}
		return err
	}
)

// WriteSnapshotFile persists a snapshot to path atomically AND durably:
// the bytes go to a temp file in the same directory, the temp file is
// fsynced BEFORE the rename (so the content is on stable storage when
// the name flips) and the parent directory is fsynced AFTER it (so the
// flip itself survives power loss). A crash mid-write can never leave a
// torn snapshot where a previous good one stood, and a returned nil
// means the snapshot is durable — the write-ahead log may truncate up
// to its epoch.
func WriteSnapshotFile(src SnapshotWriter, path string) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("simrank: snapshot temp file: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			// Error-path cleanup of a temp file we are abandoning: the
			// write already failed, so the Close result adds nothing.
			_ = f.Close()
			os.Remove(tmp)
		}
	}()
	if err = src.WriteSnapshot(f); err != nil {
		return err
	}
	if err = fileSync(f); err != nil {
		return fmt.Errorf("simrank: snapshot sync: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("simrank: snapshot close: %w", err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("simrank: snapshot rename: %w", err)
	}
	if err = dirSync(filepath.Dir(path)); err != nil {
		// The rename happened but its durability is unproven; surface the
		// error so callers (snapshot-then-truncate-WAL flows in particular)
		// do not treat the snapshot as safely landed.
		return fmt.Errorf("simrank: snapshot dir sync: %w", err)
	}
	return nil
}

// ReadSnapshotFile restores an engine from a snapshot file written by
// WriteSnapshotFile (or any WriteSnapshot output saved to disk).
func ReadSnapshotFile(path string) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //simrank:errok read-only handle; Close cannot corrupt an already-parsed snapshot
	return ReadSnapshot(f)
}

// Crash-recovery end-to-end tests: a REAL simrankd child process is
// killed with SIGKILL mid-stream and restarted over the same WAL
// directory, and the recovered store must match a serial in-process
// replay of exactly the acknowledged update stream — the durability
// contract ?wait=1 sells. Run as part of `go test ./cmd/simrankd`; the
// binary is built once per test run with the local toolchain.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	simrank "repro"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matrix"
)

var (
	buildOnce sync.Once
	buildBin  string
	buildErr  error
)

// simrankdBinary builds the simrankd binary once and returns its path.
func simrankdBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "simrankd-e2e-*")
		if err != nil {
			buildErr = err
			return
		}
		buildBin = filepath.Join(dir, "simrankd")
		cmd := exec.Command("go", "build", "-o", buildBin, ".")
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildBin
}

// child is one running simrankd process under test.
type child struct {
	cmd *exec.Cmd
	url string
	out *bytes.Buffer
}

// startChild launches simrankd on a fresh local port and waits for
// readiness. extraArgs must not include -addr.
func startChild(t *testing.T, extraArgs ...string) *child {
	t.Helper()
	bin := simrankdBinary(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	out := new(bytes.Buffer)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, extraArgs...)...)
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	c := &child{cmd: cmd, url: "http://" + addr, out: out}
	t.Cleanup(func() {
		if c.cmd.ProcessState == nil {
			c.cmd.Process.Kill()
			c.cmd.Wait()
		}
	})

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if c.cmd.ProcessState != nil {
			break
		}
		resp, err := http.Get(c.url + "/readyz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusOK {
				return c
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	c.cmd.Process.Kill()
	c.cmd.Wait()
	t.Fatalf("simrankd never became ready; output:\n%s", c.out.String())
	return nil
}

// kill9 is the crash: SIGKILL, no drain, no snapshot, no WAL close.
func (c *child) kill9(t *testing.T) {
	t.Helper()
	if err := c.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	c.cmd.Wait()
}

// sigterm asks for a graceful shutdown and requires a clean exit.
func (c *child) sigterm(t *testing.T) {
	t.Helper()
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := c.cmd.Wait(); err != nil {
		t.Fatalf("graceful shutdown exited dirty: %v\noutput:\n%s", err, c.out.String())
	}
}

// ack posts one update with ?wait=1 and requires the 200 — after it
// returns, the update is acknowledged: visible AND durably logged.
func (c *child) ack(t *testing.T, up simrank.Update) {
	t.Helper()
	op := "insert"
	if !up.Insert {
		op = "delete"
	}
	body := fmt.Sprintf(`{"from":%d,"to":%d,"op":%q}`, up.Edge.From, up.Edge.To, op)
	resp, err := http.Post(c.url+"/updates?wait=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ack %s: %d (%s)", body, resp.StatusCode, msg)
	}
}

func (c *child) post(t *testing.T, path string) {
	t.Helper()
	resp, err := http.Post(c.url+path, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d (%s)", path, resp.StatusCode, msg)
	}
}

// crashPhase1 and crashPhase2 are a short acknowledged update schedule:
// phase one before a mid-stream snapshot, phase two after it (recovered
// from the WAL tail alone). All on an empty 8-node graph.
var crashPhase1 = []simrank.Update{
	{Edge: simrank.Edge{From: 0, To: 1}, Insert: true},
	{Edge: simrank.Edge{From: 1, To: 2}, Insert: true},
	{Edge: simrank.Edge{From: 2, To: 0}, Insert: true},
	{Edge: simrank.Edge{From: 3, To: 1}, Insert: true},
	{Edge: simrank.Edge{From: 4, To: 5}, Insert: true},
	{Edge: simrank.Edge{From: 5, To: 6}, Insert: true},
}

var crashPhase2 = []simrank.Update{
	{Edge: simrank.Edge{From: 6, To: 7}, Insert: true},
	{Edge: simrank.Edge{From: 7, To: 0}, Insert: true},
	{Edge: simrank.Edge{From: 4, To: 5}, Insert: false},
	{Edge: simrank.Edge{From: 2, To: 7}, Insert: true},
	{Edge: simrank.Edge{From: 3, To: 1}, Insert: false},
	{Edge: simrank.Edge{From: 1, To: 7}, Insert: true},
}

// kill9Graph writes the edge list TestCrashRecoveryKill9 boots from and
// returns the graph with its acknowledged toggle stream, split at the
// mid-stream snapshot. The graph and stream are large enough that a
// dense and a packed store that summed any cell differently would
// differ somewhere in the last bits; 8 nodes and 12 updates would not.
func kill9Graph(t *testing.T, path string) (*graph.DiGraph, []simrank.Update, []simrank.Update) {
	t.Helper()
	g := gen.PrefAttach(48, 3, 5)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Every third toggle deletes an existing edge; the rest toggle a
	// uniform pair, which mostly inserts.
	model := g.Clone()
	rng := rand.New(rand.NewSource(9))
	ups := make([]simrank.Update, 0, 60)
	for len(ups) < cap(ups) {
		e := simrank.Edge{From: rng.Intn(g.N()), To: rng.Intn(g.N())}
		if len(ups)%3 == 2 {
			e = model.Edges()[rng.Intn(model.M())]
		}
		up := simrank.Update{Edge: e, Insert: !model.HasEdge(e.From, e.To)}
		model.Apply(up)
		ups = append(ups, up)
	}
	return g, ups[:30], ups[30:]
}

// TestCrashRecoveryKill9 is the end-to-end durability proof, per
// backend: boot a live simrankd from an edge list, stream acknowledged
// writes into it (taking a mid-stream snapshot so recovery exercises
// restore + tail replay),
// SIGKILL it with no warning, restart over the same WAL directory, shut
// down gracefully, and compare the final persisted state against a
// serial in-process replay of the acknowledged stream — bit-identical
// on every backend. Dense and packed restore the exact S they wrote and
// replay the tail through the same Inc-SR updates; approx's WAL replay
// repairs the walk index through the same pure (graph, seed) function
// the live stream did, so recovery cannot drift even by one bit.
func TestCrashRecoveryKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	for _, backend := range []simrank.Backend{simrank.BackendDense, simrank.BackendPacked, simrank.BackendApprox} {
		t.Run(string(backend), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			walDir := filepath.Join(dir, "wal")
			snap := filepath.Join(dir, "state.simr")
			graphFile := filepath.Join(dir, "edges.txt")
			base, phase1, phase2 := kill9Graph(t, graphFile)

			args := []string{"-graph", graphFile, "-backend", string(backend),
				"-wal-dir", walDir, "-snapshot", snap}
			if backend == simrank.BackendApprox {
				args = append(args, "-approx-walks", "64", "-approx-seed", "7")
			}
			p1 := startChild(t, args...)
			for _, up := range phase1 {
				p1.ack(t, up)
			}
			p1.post(t, "/snapshot") // sealed segments below this epoch may vanish
			for _, up := range phase2 {
				p1.ack(t, up)
			}
			p1.kill9(t)

			// Restart over the wreckage: restore the mid-stream snapshot,
			// replay the WAL tail. Everything acknowledged must be back.
			p2 := startChild(t, "-restore", snap, "-wal-dir", walDir, "-snapshot", snap)
			p2.sigterm(t) // drains (nothing queued) and persists the final snapshot

			restoredEng, err := simrank.ReadSnapshotFile(snap)
			if err != nil {
				t.Fatal(err)
			}
			restored := simrank.WrapEngine(restoredEng)

			// The oracle: the acknowledged stream applied serially, through
			// the same single-update-batch entry point the server's drain
			// cycles used (sequential ?wait=1 posts never coalesce).
			// The oracle's options must match the child's flags (simrankd
			// defaults: -c 0.6 -k 15). Dense and packed hold the same
			// exactly symmetric S, so packed recovers against a dense
			// oracle, which also catches packed drifting from dense.
			oracle := backend
			if backend == simrank.BackendPacked {
				oracle = simrank.BackendDense
			}
			serialEng, err := simrank.NewEngine(base.N(), base.Edges(), simrank.Options{
				C: 0.6, K: 15, Backend: oracle, ApproxWalks: 64, ApproxSeed: 7})
			if err != nil {
				t.Fatal(err)
			}
			serial := simrank.WrapEngine(serialEng)
			for _, up := range append(append([]simrank.Update(nil), phase1...), phase2...) {
				if err := serial.ApplyBatch([]simrank.Update{up}); err != nil {
					t.Fatal(err)
				}
			}

			sn, sm := serial.Size()
			rn, rm := restored.Size()
			if sn != rn || sm != rm {
				t.Fatalf("recovered size (%d, %d), want (%d, %d)", rn, rm, sn, sm)
			}
			for i := 0; i < sn; i++ {
				for j := 0; j < sn; j++ {
					if serial.HasEdge(i, j) != restored.HasEdge(i, j) {
						t.Fatalf("edge (%d,%d) presence differs after recovery", i, j)
					}
				}
			}
			if backend == simrank.BackendApprox {
				// No materialized matrix — compare every sampled score, at
				// tolerance zero: replay is the same derived-seed repair.
				for i := 0; i < sn; i++ {
					for j := 0; j < sn; j++ {
						if got, want := restored.Similarity(i, j), serial.Similarity(i, j); got != want {
							t.Fatalf("recovered s(%d,%d) = %v, serial replay %v", i, j, got, want)
						}
					}
				}
				return
			}
			if d := matrix.MaxAbsDiff(serial.Similarities(), restored.Similarities()); d != 0 {
				t.Fatalf("recovered store drifted %g from serial replay", d)
			}
		})
	}
}

// TestCrashRecoveryApproxDeterminism: the approx tier's crash story is
// derived-seed determinism — acknowledged updates straddle a mid-stream
// snapshot, the process dies with kill -9, and after restore + WAL tail
// replay every sampled score must come back EXACTLY: snapshot restore
// rebuilds the stored walks from (graph, seed) and tail replay repairs
// them through the same pure function the live stream used.
func TestCrashRecoveryApproxDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	dir := t.TempDir()
	graphFile := filepath.Join(dir, "edges.txt")
	edges := "0 1\n1 2\n2 0\n2 3\n3 4\n4 1\n"
	if err := os.WriteFile(graphFile, []byte(edges), 0o644); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "state.simr")
	walDir := filepath.Join(dir, "wal")

	p1 := startChild(t, "-graph", graphFile, "-backend", "approx",
		"-approx-walks", "64", "-approx-seed", "7",
		"-wal-dir", walDir, "-snapshot", snap)
	p1.ack(t, simrank.Update{Edge: simrank.Edge{From: 3, To: 0}, Insert: true})
	p1.post(t, "/snapshot") // recovery must compose restore + tail replay
	p1.ack(t, simrank.Update{Edge: simrank.Edge{From: 2, To: 3}, Insert: false})
	p1.ack(t, simrank.Update{Edge: simrank.Edge{From: 1, To: 3}, Insert: true})
	var before [5][5]float64
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			before[i][j] = getScore(t, p1.url, i, j)
		}
	}
	p1.kill9(t)

	p2 := startChild(t, "-restore", snap, "-wal-dir", walDir, "-snapshot", snap)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if got := getScore(t, p2.url, i, j); math.Abs(got-before[i][j]) != 0 {
				t.Fatalf("s(%d,%d) = %g after recovery, was %g — approx replay must be deterministic", i, j, got, before[i][j])
			}
		}
	}
	p2.sigterm(t)
}

// TestCorruptWALFailsBootLoudly: damage in the middle of the log is
// disk corruption, not a crash artifact — the process must refuse to
// serve (nonzero exit, never ready) instead of replaying past it.
func TestCorruptWALFailsBootLoudly(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")

	p1 := startChild(t, "-n", "8", "-wal-dir", walDir)
	for _, up := range crashPhase1 {
		p1.ack(t, up)
	}
	p1.kill9(t)

	// Flip one byte early in the (only) segment — a mid-log record's CRC
	// now fails with intact records after it.
	segs, err := filepath.Glob(filepath.Join(walDir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments found (%v)", err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[12] ^= 0xFF // inside the first record's payload
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	bin := simrankdBinary(t)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-n", "8", "-wal-dir", walDir)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("boot over a corrupt wal exited clean; output:\n%s", out)
	}
	if !bytes.Contains(out, []byte("wal")) {
		t.Fatalf("corrupt-wal failure does not name the wal; output:\n%s", out)
	}
}

func getScore(t *testing.T, base string, a, b int) float64 {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/similarity?a=%d&b=%d", base, a, b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("similarity: %d", resp.StatusCode)
	}
	var out struct {
		Score float64 `json:"score"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Score
}

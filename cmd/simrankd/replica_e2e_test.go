// Replication end-to-end chaos tests: REAL simrankd processes — one
// leader, one follower tailing it over GET /wal — each killed with
// SIGKILL at the worst moment and restarted, with the follower required
// to converge bit-identically to a serial in-process replay of the
// acknowledged write stream. The leader crash proves the follower's
// reconnect-from-applied-epoch loop; the follower crash proves local
// snapshot+WAL resume (no refetch of already-applied history).
package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	simrank "repro"
)

// startChildAt launches simrankd bound to a SPECIFIC address — the
// leader-restart test needs the reborn leader back at the address the
// follower keeps dialing.
func startChildAt(t *testing.T, addr string, extraArgs ...string) *child {
	t.Helper()
	bin := simrankdBinary(t)
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
	waitStatus(t, c, http.StatusOK)
	return c
}

// freePort reserves an ephemeral local address for a child that must be
// restartable at the same place.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// waitStatus polls /readyz until it answers want.
func waitStatus(t *testing.T, c *child, want int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if c.cmd.ProcessState != nil {
			t.Fatalf("child exited while waiting for /readyz=%d; output:\n%s", want, c.out.String())
		}
		resp, err := http.Get(c.url + "/readyz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == want {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("/readyz never answered %d; output:\n%s", want, c.out.String())
}

// replicaStats is the slice of /stats this test watches.
type replicaStats struct {
	Epoch           uint64  `json:"epoch"`
	LagEpochs       uint64  `json:"replica_lag_epochs"`
	RecordsStreamed int64   `json:"records_streamed"`
	Reconnects      int64   `json:"reconnects"`
	LagMS           float64 `json:"replica_lag_ms"`
	Leader          string  `json:"leader"`
}

func getReplicaStats(t *testing.T, base string) replicaStats {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st replicaStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitEpoch polls until the child's serving epoch reaches target.
func waitEpoch(t *testing.T, c *child, target uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if c.cmd.ProcessState != nil {
			t.Fatalf("child exited while converging to epoch %d; output:\n%s", target, c.out.String())
		}
		if st := getReplicaStats(t, c.url); st.Epoch >= target {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("never reached epoch %d (at %d); output:\n%s", target, getReplicaStats(t, c.url).Epoch, c.out.String())
}

// TestReplicaChaosKill9 is the tentpole's end-to-end proof. The
// timeline:
//
//  1. Leader (WAL, dense) takes acknowledged writes; a follower with
//     its own WAL dir tails it and converges.
//  2. kill -9 the LEADER mid-stream; restart it at the same address
//     over the same WAL (empty-base + full replay). The follower must
//     reconnect on its own and converge on the post-restart writes.
//  3. Snapshot the FOLLOWER, kill -9 the follower, commit more writes
//     on the leader, restart the follower from its local snapshot +
//     WAL. It must resume from where its local state ends — streaming
//     only the missed records, never refetching from epoch 0.
//  4. Leader, follower, and a serial in-process oracle replay of the
//     acknowledged stream agree on every similarity, bit-for-bit.
func TestReplicaChaosKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	dir := t.TempDir()
	leaderWAL := filepath.Join(dir, "leader-wal")
	followerWAL := filepath.Join(dir, "follower-wal")
	followerSnap := filepath.Join(dir, "follower.simr")

	leaderAddr := freePort(t)
	leaderURL := "http://" + leaderAddr
	leaderArgs := []string{"-n", "8", "-wal-dir", leaderWAL, "-wal-heartbeat", "50ms"}
	leader := startChildAt(t, leaderAddr, leaderArgs...)

	followerArgs := []string{
		"-wal-dir", followerWAL, "-snapshot", followerSnap,
		"-follow", leaderURL, "-follow-stall", "500ms",
	}
	follower := startChild(t, append([]string{"-n", "8"}, followerArgs...)...)

	// Phase 1: acknowledged writes flow; the follower converges and its
	// readiness gate opens (startChild already required /readyz=200,
	// which on a follower means caught up).
	for _, up := range crashPhase1 {
		leader.ack(t, up)
	}
	waitEpoch(t, follower, uint64(len(crashPhase1)))

	// A follower is read-only: writes answer 409 and name the leader.
	resp, err := http.Post(follower.url+"/updates?wait=1", "application/json",
		strings.NewReader(`{"from":0,"to":7}`))
	if err != nil {
		t.Fatal(err)
	}
	var errBody struct {
		Leader string `json:"leader"`
	}
	json.NewDecoder(resp.Body).Decode(&errBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || errBody.Leader != leaderURL {
		t.Fatalf("follower write: %d (leader %q), want 409 naming %q", resp.StatusCode, errBody.Leader, leaderURL)
	}

	// Phase 2: murder the leader mid-stream, restart it at the SAME
	// address over the same WAL. Its boot replays the full log (no
	// snapshot was ever taken), so the stream resumes exactly where the
	// acknowledged history ends.
	leader.kill9(t)
	leader = startChildAt(t, leaderAddr, leaderArgs...)
	phase2 := crashPhase2[:3]
	for _, up := range phase2 {
		leader.ack(t, up)
	}
	epoch2 := uint64(len(crashPhase1) + len(phase2))
	waitEpoch(t, follower, epoch2)
	if st := getReplicaStats(t, follower.url); st.Reconnects < 1 {
		t.Fatalf("follower converged without recording a reconnect across the leader crash: %+v", st)
	}

	// Phase 3: snapshot the follower, murder it, commit more on the
	// leader, restart the follower from its local snapshot + WAL.
	follower.post(t, "/snapshot")
	follower.kill9(t)
	rest := crashPhase2[3:]
	for _, up := range rest {
		leader.ack(t, up)
	}
	totalEpoch := epoch2 + uint64(len(rest))
	// -restore replaces -n: the follower boots from its own snapshot
	// (epoch 9) and must stream ONLY the records it missed.
	follower = startChild(t, append([]string{"-restore", followerSnap}, followerArgs...)...)
	waitEpoch(t, follower, totalEpoch)
	if st := getReplicaStats(t, follower.url); st.RecordsStreamed > int64(len(rest)) {
		t.Fatalf("restarted follower streamed %d records for %d missed epochs — it refetched history its local snapshot+wal already held", st.RecordsStreamed, len(rest))
	}

	// Phase 4: leader, follower, and a serial oracle of the acknowledged
	// stream agree bit-for-bit on every similarity. (Oracle options
	// mirror the simrankd defaults: -c 0.6 -k 15, dense;
	// sequential ?wait=1 posts commit as single-update batches.)
	oracleEng, err := simrank.NewEngine(8, nil, simrank.Options{C: 0.6, K: 15})
	if err != nil {
		t.Fatal(err)
	}
	oracle := simrank.WrapEngine(oracleEng)
	acked := append(append(append([]simrank.Update(nil), crashPhase1...), phase2...), rest...)
	for _, up := range acked {
		if err := oracle.ApplyBatch([]simrank.Update{up}); err != nil {
			t.Fatal(err)
		}
	}
	if got := oracle.Epoch(); got != totalEpoch {
		t.Fatalf("oracle epoch %d, want %d", got, totalEpoch)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			want := oracle.Similarity(i, j)
			if got := getScore(t, leader.url, i, j); got != want {
				t.Fatalf("leader s(%d,%d) = %v, oracle %v", i, j, got, want)
			}
			if got := getScore(t, follower.url, i, j); got != want {
				t.Fatalf("follower s(%d,%d) = %v, oracle %v (must be bit-identical at the same epoch)", i, j, got, want)
			}
		}
	}
	follower.sigterm(t)
	leader.sigterm(t)
}

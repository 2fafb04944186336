package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
)

// daemon is one running simrankd process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	args   []string
	setup  time.Duration // exec to first /readyz 200
	exited chan struct{}
	log    *os.File
}

// bootDaemon execs simrankd on a free loopback port and waits for its
// first /readyz 200.
func bootDaemon(bin string, flags []string, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-addr", addr}, flags...)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills the server if this process dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, url: "http://" + addr, args: args, exited: make(chan struct{}), log: logf}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start simrankd: %w", err)
	}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(d.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.setup = time.Since(start)
				probe.CloseIdleConnections()
				return d, nil
			}
		}
		select {
		case <-d.exited:
			logf.Close()
			return nil, fmt.Errorf("simrankd exited during boot (see %s)", logPath)
		default:
		}
		if time.Since(start) > 60*time.Second {
			d.stop()
			return nil, errors.New("simrankd not ready after 60s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop asks the server to shut down and waits until it has exited.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
}

// procMiB reads one kB field, such as VmRSS: or VmHWM:, from a /proc
// status file.
func procMiB(statusPath, field string) (float64, error) {
	b, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in %s", field, statusPath)
}

// probeClient serves /stats and the answer check, which must not hang
// the run on a stuck server.
var probeClient = &http.Client{Timeout: 30 * time.Second}

func (d *daemon) stats() (server.StatsResponse, json.RawMessage, error) {
	var st server.StatsResponse
	resp, err := probeClient.Get(d.url + "/stats")
	if err != nil {
		return st, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET /stats: %s", resp.Status)
	}
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	return st, body, err
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// Latency classes, one per endpoint.
const (
	classWrite = iota
	classTopKFor
	classSimilarity
	numClasses
)

func classOf(o op) int {
	switch o.kind {
	case opTopKFor:
		return classTopKFor
	case opSimilarity:
		return classSimilarity
	}
	return classWrite
}

// sample is one 2xx op: when it was sent, from the start of its phase,
// and how long it took in µs.
type sample struct {
	at time.Duration
	us float64
}

// connStats is one connection's tally for one phase.
type connStats struct {
	lat       [numClasses][]sample
	attempted int
	failed    int
	lastErr   string
}

// conn is one closed-loop client: one TCP connection, one request in
// flight, its own op stream.
type conn struct {
	client *http.Client
	base   string
	s      *stream
}

func newConn(base string, s *stream) *conn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &conn{client: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base, s: s}
}

func (c *conn) request(o op) (*http.Request, error) {
	method, target, body := o.request()
	if body == nil {
		return http.NewRequest(method, c.base+target, nil)
	}
	req, err := http.NewRequest(method, c.base+target, bytes.NewReader(body))
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, err
}

// loop runs ops until deadline, timing each from just before the
// request is sent to the end of its response body.
func (c *conn) loop(phaseStart, deadline time.Time, st *connStats) {
	for time.Now().Before(deadline) {
		o := c.s.next()
		req, err := c.request(o)
		if err != nil {
			st.attempted++
			st.failed++
			st.lastErr = err.Error()
			continue
		}
		start := time.Now()
		resp, err := c.client.Do(req)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode/100 != 2 {
				err = fmt.Errorf("%s %s: %s", req.Method, req.URL.Path, resp.Status)
			}
		}
		d := time.Since(start)
		st.attempted++
		if err != nil {
			st.failed++
			st.lastErr = err.Error()
			continue
		}
		cl := classOf(o)
		st.lat[cl] = append(st.lat[cl], sample{start.Sub(phaseStart), us(d)})
	}
}

// phase runs every connection's closed loop for d and returns the
// per-connection tallies and the wall time until the last in-flight
// request completed.
func phase(conns []*conn, d time.Duration) ([]connStats, time.Duration) {
	out := make([]connStats, len(conns))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(start, deadline, &out[i])
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// merge folds per-connection tallies into one.
func merge(parts []connStats) connStats {
	var m connStats
	for _, p := range parts {
		for c := range numClasses {
			m.lat[c] = append(m.lat[c], p.lat[c]...)
		}
		m.attempted += p.attempted
		m.failed += p.failed
		if p.lastErr != "" {
			m.lastErr = p.lastErr
		}
	}
	return m
}

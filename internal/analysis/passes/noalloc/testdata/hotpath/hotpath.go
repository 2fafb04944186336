// Deliberate noalloc violations plus every idiom the analyzer must
// accept: self-append, cold error returns, allocok escapes, and
// non-escaping closures. Never built by the go tool.
package fixture

import "fmt"

type workspace struct {
	buf  []float64
	supp []int
	m    map[int]float64
}

type errBad struct{ n int }

func (e *errBad) Error() string { return "bad" }

func launch(fn func()) { fn() }

func sum(xs ...int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// In-place growth and plain arithmetic: clean.
//
//simrank:noalloc
func (ws *workspace) grow(v float64) {
	ws.buf = append(ws.buf, v)
	ws.supp = append(ws.supp, len(ws.buf))
}

//simrank:noalloc
func (ws *workspace) bad(n int, s, t string) {
	x := make([]float64, n) // want "make allocates"
	_ = x
	ws.m[n] = 1                    // want "map write may allocate"
	ws.supp = append(ws.buf2(), n) // want "append into a different slice allocates"
	msg := fmt.Sprintf("%d", n)    // want "fmt always allocates"
	_ = msg
	u := s + t // want "string concatenation allocates"
	_ = u
	b := []byte(s) // want "string/slice conversion copies"
	_ = b
	_ = sum(1, 2, 3)  // want "variadic call builds an implicit slice"
	launch(func() {}) // want "escaping function literal allocates a closure"
	go ws.grow(1)     // want "go statement allocates a goroutine"
	p := &workspace{} // want "composite literal escapes to the heap"
	_ = p
}

func (ws *workspace) buf2() []int { return ws.supp }

// Immediately-invoked and locally-bound literals stay on the stack.
//
//simrank:noalloc
func (ws *workspace) closures(v float64) {
	func() { ws.buf[0] = v }()
	add := func(i int) { ws.buf[i] += v }
	add(0)
}

// A construct inside `return ..., err` with err non-nil is off the
// steady-state path the contract covers.
//
//simrank:noalloc
func (ws *workspace) checked(n int) (int, error) {
	if n < 0 {
		return 0, &errBad{n: n}
	}
	return n, nil
}

// First-use growth behind an allocok directive with its audit reason.
//
//simrank:noalloc
func (ws *workspace) coldStart(n int) {
	if ws.buf == nil {
		ws.buf = make([]float64, n) //simrank:allocok first-use growth; steady state reuses the buffer
	}
}

// Unannotated functions may allocate freely.
func (ws *workspace) rebuild(n int) {
	ws.buf = make([]float64, n)
	ws.m = map[int]float64{}
}

// A go statement is reported however it is dressed: neither a
// first-use guard nor an allocok directive excuses a spawn.
//
//simrank:noalloc
func (ws *workspace) dispatch(n int) {
	if ws.supp == nil {
		go ws.grow(1)               // want "go statement allocates a goroutine"
		ws.buf = make([]float64, n) // want "make allocates"
	}
	//simrank:allocok not good enough for a spawn
	go ws.grow(2) // want "allocok does not excuse a spawn"
}

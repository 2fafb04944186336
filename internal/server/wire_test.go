package server

import (
	"encoding/json"
	"slices"
	"testing"
)

// FuzzDecodeUpdates feeds arbitrary bodies to the POST /updates decoder.
// It must never panic. A body it accepts is a non-empty batch, and that
// batch re-encoded as a []UpdateJSON array decodes back to the same
// updates.
func FuzzDecodeUpdates(f *testing.F) {
	for _, body := range []string{
		`{"from":1,"to":2}`,
		`[{"from":1,"to":2,"op":"+"},{"from":2,"to":3,"op":"delete"},{"from":3,"to":1}]`,
		`null`,
		`{}`,
		`[]`,
		`[null]`,
		`{"from":1}`,
		`{"from":1,"to":2,"op":"toggle"}`,
		`{"from":1e20,"to":2}`,
		`{"from":-1,"to":-2}`,
		`[[{"from":1,"to":2}]]`,
		`{"from":1,"to":2} trailing`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		ups, err := decodeUpdates(body)
		if err != nil {
			return
		}
		if len(ups) == 0 {
			t.Fatal("decoded an empty batch without an error")
		}
		wire := make([]UpdateJSON, len(ups))
		for i, up := range ups {
			op := "delete"
			if up.Insert {
				op = "insert"
			}
			wire[i] = UpdateJSON{From: up.Edge.From, To: up.Edge.To, Op: op}
		}
		enc, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeUpdates(enc)
		if err != nil {
			t.Fatalf("re-encoded batch %s rejected: %v", enc, err)
		}
		if !slices.Equal(back, ups) {
			t.Fatalf("re-encoded batch decoded to %v, want %v", back, ups)
		}
	})
}

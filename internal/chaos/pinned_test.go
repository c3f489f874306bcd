package chaos

import (
	"os"
	"path/filepath"
	"testing"
)

// TestPinnedCounterexamplesPass replays every shrunk counterexample
// checked in under testdata/ and expects it to pass. Each artifact
// records a violation an earlier version of the stack produced under its
// exact fault schedule, so a failure here is that defect come back:
//
//   - torn-write-seed176: an amnesia crash tore a node's order-append
//     records after its peers had confirmed the labels; the rebuilt node
//     was chosen as state-exchange representative and its shorter order
//     re-sorted a confirmed suffix (a gap in its delivery stream).
//   - torn-write-seed1142: an amnesia crash tore an origin's label record
//     after the label had left on the token; recovery labeled the value
//     again and it was delivered twice.
func TestPinnedCounterexamplesPass(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no pinned counterexamples under testdata/")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			a, err := DecodeArtifact(data)
			if err != nil {
				t.Fatal(err)
			}
			if a.Check == "" {
				t.Fatal("artifact records no violation: not a counterexample")
			}
			if r := Run(a.Config()); r.Failed() {
				t.Fatalf("counterexample reproduces (recorded: %s: %s): %v", a.Check, a.Detail, r.Violation)
			}
		})
	}
}

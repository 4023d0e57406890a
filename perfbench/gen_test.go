package main

import (
	"bytes"
	"testing"
)

// TestGeneratedInputs runs the benchmark's input self-test on several seeds
// of every workload: docs validate and build, fleet-watch updates dirty
// exactly the moved kind's features, numeric-repeat hits its repeat share.
func TestGeneratedInputs(t *testing.T) {
	for _, w := range workloads {
		for seed := int64(1); seed <= 3; seed++ {
			if err := selfTest(w, w.gen(seed, 2)); err != nil {
				t.Errorf("%s seed %d: %v", w.name, seed, err)
			}
		}
	}
}

// TestSeedDeterminism: the same seed gives byte-identical request bodies,
// another seed different ones.
func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.gen(7, 1), w.gen(7, 1), w.gen(8, 1)
		if len(a.items) != len(b.items) {
			t.Fatalf("%s: %d vs %d inputs for one seed", w.name, len(a.items), len(b.items))
		}
		for i := range a.items {
			if !bytes.Equal(a.items[i].body, b.items[i].body) {
				t.Fatalf("%s: input %d differs between runs of one seed", w.name, i)
			}
		}
		if bytes.Equal(a.items[0].body, c.items[0].body) {
			t.Errorf("%s: seeds 7 and 8 give the same first input", w.name)
		}
	}
}

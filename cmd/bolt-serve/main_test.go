package main

import (
	"os"
	"path/filepath"
	"testing"

	"bolt"
)

// run() blocks on signals, so these tests cover its error paths and the
// probe-input helper; the full serve/client loop is exercised by
// cmd/bolt-client's tests and the serve package's integration tests.

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-model", "/nonexistent.bin"}); err == nil {
		t.Error("missing model accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.bin")
	if err := os.WriteFile(bad, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-model", bad}); err == nil {
		t.Error("corrupt model accepted")
	}
	if err := run([]string{"-zzz"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestRunRejectsBadFlags pins the flag validation sweep: sizing typos
// fail before any model is even read (the model path here does not
// exist, so reaching the load would error differently).
func TestRunRejectsBadFlags(t *testing.T) {
	bad := [][]string{
		{"-workers", "-1"},
		{"-kernel-workers", "-2"},
		{"-drain", "0s"},
	}
	for _, args := range bad {
		err := run(append([]string{"-model", "/nonexistent.bin"}, args...))
		if err == nil {
			t.Errorf("args %q accepted", args)
			continue
		}
		if os.IsNotExist(err) {
			t.Errorf("args %q reached the model load instead of failing validation: %v", args, err)
		}
	}
}

func TestRunTuneErrors(t *testing.T) {
	d := bolt.SyntheticBlobs(200, 16, 3, 1.5, 1)
	f := bolt.Train(d, bolt.ForestConfig{NumTrees: 3, Tree: bolt.TreeConfig{MaxDepth: 3}, Seed: 2})
	model := filepath.Join(t.TempDir(), "f.bin")
	out, err := os.Create(model)
	if err != nil {
		t.Fatal(err)
	}
	if err := bolt.EncodeForest(out, f); err != nil {
		t.Fatal(err)
	}
	out.Close()
	// Tuning probes from an unknown dataset.
	if err := run([]string{"-model", model, "-tune", "-dataset", "nope"}); err == nil {
		t.Error("unknown tuning dataset accepted")
	}
	// Feature mismatch between model (16) and probe dataset (784).
	if err := run([]string{"-model", model, "-tune", "-dataset", "mnist"}); err == nil {
		t.Error("feature mismatch accepted")
	}
}

func TestProbeInputs(t *testing.T) {
	x, err := probeInputs("lstw", 10, 11, 1)
	if err != nil || len(x) != 10 {
		t.Fatalf("probeInputs: %v (%d)", err, len(x))
	}
	if _, err := probeInputs("lstw", 10, 99, 1); err == nil {
		t.Error("feature mismatch accepted")
	}
}

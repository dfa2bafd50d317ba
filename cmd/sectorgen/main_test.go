package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sectorpack/internal/model"
)

func TestGenerateToStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-family", "uniform", "-n", "10", "-m", "2"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	in, err := model.ReadJSON(&stdout)
	if err != nil {
		t.Fatalf("output is not a valid instance: %v", err)
	}
	if in.N() != 10 || in.M() != 2 {
		t.Fatalf("shape %dx%d", in.N(), in.M())
	}
}

func TestGenerateToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-family", "zipf", "-variant", "angles", "-n", "15", "-m", "3", "-unit", "-out", path}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(stderr.String(), "wrote") {
		t.Error("expected confirmation on stderr")
	}
	in, err := model.LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if !in.UnitDemand() {
		t.Error("-unit must force unit demands")
	}
	if in.Variant != model.Angles {
		t.Errorf("variant = %v", in.Variant)
	}
}

func TestGenerateVariants(t *testing.T) {
	for _, v := range []string{"sectors", "angles", "disjoint"} {
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-variant", v, "-n", "5", "-m", "2"}, &stdout, &stderr); err != nil {
			t.Errorf("variant %s: %v", v, err)
		}
	}
}

func TestGenerateCountWritesBatchEnvelope(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-count", "3", "-n", "8", "-m", "2", "-seed", "5"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	ins, err := model.ReadBatchJSON(&stdout)
	if err != nil {
		t.Fatalf("output is not a batch envelope: %v", err)
	}
	if len(ins) != 3 {
		t.Fatalf("envelope holds %d instances, want 3", len(ins))
	}
	names := map[string]bool{}
	for _, in := range ins {
		if in.N() != 8 || in.M() != 2 {
			t.Errorf("instance %s shape %dx%d, want 8x2", in.Name, in.N(), in.M())
		}
		names[in.Name] = true
	}
	// Instance k uses seed+k, so the three instances must be distinct.
	if len(names) != 3 {
		t.Errorf("batch instances share names %v — seeds not varied?", names)
	}

	path := filepath.Join(t.TempDir(), "batch.json")
	stdout.Reset()
	stderr.Reset()
	if err := run([]string{"-count", "2", "-n", "6", "-m", "2", "-out", path}, &stdout, &stderr); err != nil {
		t.Fatalf("run -out: %v", err)
	}
	if !strings.Contains(stderr.String(), "2 instances") {
		t.Errorf("confirmation %q does not report the count", stderr.String())
	}
	if ins, err := model.LoadBatchFile(path); err != nil || len(ins) != 2 {
		t.Errorf("LoadBatchFile: %d instances, err %v", len(ins), err)
	}
}

func TestGenerateCountOneKeepsSingleEnvelope(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-count", "1", "-n", "5", "-m", "2"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := model.ReadJSON(&stdout); err != nil {
		t.Fatalf("-count 1 output is not a single-instance envelope: %v", err)
	}
}

func TestGenerateErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-variant", "bogus"}, &stdout, &stderr); err == nil {
		t.Error("unknown variant must error")
	}
	if err := run([]string{"-family", "bogus"}, &stdout, &stderr); err == nil {
		t.Error("unknown family must error")
	}
	if err := run([]string{"-nope"}, &stdout, &stderr); err == nil {
		t.Error("unknown flag must error")
	}
	if err := run([]string{"-count", "0"}, &stdout, &stderr); err == nil {
		t.Error("-count 0 must error")
	}
}

func TestGenerateTierPreset(t *testing.T) {
	// -n overrides the preset's N (a full 100k generation is too slow for
	// a unit test); the preset must still supply M=16 and its family.
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-tier", "100k", "-n", "50"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	in, err := model.ReadJSON(&stdout)
	if err != nil {
		t.Fatalf("output is not a valid instance: %v", err)
	}
	if in.N() != 50 || in.M() != 16 {
		t.Fatalf("shape %dx%d, want 50x16 (-n override + preset m)", in.N(), in.M())
	}

	var out2, err2 bytes.Buffer
	if err := run([]string{"-tier", "bogus"}, &out2, &err2); err == nil {
		t.Error("unknown tier must error")
	}
}

// readTrace decodes a trace sectorgen -churn wrote and validates it: the
// envelope's format version, the base instance, and every delta applied
// in turn.
func readTrace(r io.Reader) (*model.Trace, error) {
	var env struct {
		FormatVersion int          `json:"format_version"`
		Trace         *model.Trace `json:"trace"`
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		return nil, err
	}
	if env.FormatVersion != 1 || env.Trace == nil || env.Trace.Instance == nil {
		return nil, fmt.Errorf("bad trace envelope: version %d, trace %v", env.FormatVersion, env.Trace)
	}
	if err := env.Trace.Instance.Normalize().Validate(); err != nil {
		return nil, err
	}
	if _, err := env.Trace.Materialize(len(env.Trace.Deltas)); err != nil {
		return nil, err
	}
	return env.Trace, nil
}

func TestGenerateChurnTrace(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-churn", "-n", "60", "-m", "4", "-seed", "3", "-churn-steps", "5", "-churn-rate", "0.05", "-churn-capacity-every", "2"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	tr, err := readTrace(&stdout)
	if err != nil {
		t.Fatalf("output is not a valid trace: %v", err)
	}
	if tr.Instance.N() != 60 || len(tr.Deltas) != 5 {
		t.Fatalf("trace shape n=%d deltas=%d, want 60/5", tr.Instance.N(), len(tr.Deltas))
	}
	capChanges := 0
	for _, d := range tr.Deltas {
		capChanges += len(d.SetCapacity)
	}
	if capChanges == 0 {
		t.Error("-churn-capacity-every produced no capacity changes")
	}

	// Deterministic: the same flags reproduce the same trace.
	var again bytes.Buffer
	if err := run(args, &again, &stderr); err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := model.WriteTraceJSON(&first, tr); err != nil {
		t.Fatal(err)
	}
	tr2, err := readTrace(&again)
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := model.WriteTraceJSON(&second, tr2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("same flags produced different traces")
	}

	// File output goes through the atomic writer and confirms on stderr.
	path := filepath.Join(t.TempDir(), "trace.json")
	stderr.Reset()
	if err := run([]string{"-churn", "-n", "30", "-m", "2", "-out", path}, &stdout, &stderr); err != nil {
		t.Fatalf("run -out: %v", err)
	}
	if !strings.Contains(stderr.String(), "deltas") {
		t.Errorf("confirmation %q does not report the delta count", stderr.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if tr, err := readTrace(f); err != nil {
		t.Errorf("trace file: %v", err)
	} else if len(tr.Deltas) != 8 {
		t.Errorf("trace file has %d deltas, want the default 8", len(tr.Deltas))
	}

	// -churn is a single-trace mode.
	if err := run([]string{"-churn", "-count", "2"}, &stdout, &stderr); err == nil {
		t.Error("-churn with -count > 1 must error")
	}
}
